(* Linear probing over parallel key and value arrays.  A key's home
   slot is the top bits of its product with an odd constant near
   2^63 / phi (Fibonacci hashing), which spreads both runs of
   consecutive keys and keys that differ only in their high bits.  At
   most half the slots are full, so probe runs stay short; removal
   moves later entries of the run back (backward-shift deletion), so
   no tombstones accumulate. *)

let initial_bits = 3
let vacant = -1
let golden = 0x4F1BBCDCBFA53E0B

type 'a t = {
  mutable keys : int array;  (* [vacant] marks an empty slot *)
  mutable vals : 'a array;
  mutable size : int;
  mutable bits : int;  (* log2 of the slot count *)
  dummy : 'a;
}

let create ~dummy () =
  {
    keys = Array.make (1 lsl initial_bits) vacant;
    vals = Array.make (1 lsl initial_bits) dummy;
    size = 0;
    bits = initial_bits;
    dummy;
  }

let length t = t.size
let home ~bits k = (k * golden) lsr (Sys.int_size - bits)

(* The slot holding [k], or -1.  Loops, not local recursive functions,
   here and below: a closure per call would allocate on every lookup. *)
let slot t k =
  if k < 0 then -1
  else begin
    let mask = Array.length t.keys - 1 in
    let i = ref (home ~bits:t.bits k) in
    while t.keys.(!i) <> k && t.keys.(!i) <> vacant do
      i := (!i + 1) land mask
    done;
    if t.keys.(!i) = k then !i else -1
  end

let find t k =
  let i = slot t k in
  if i < 0 then raise Not_found else t.vals.(i)

(* Store [k] in its probe run's first vacant slot; [k] is unbound. *)
let insert t k v =
  let mask = Array.length t.keys - 1 in
  let i = ref (home ~bits:t.bits k) in
  while t.keys.(!i) <> vacant do
    i := (!i + 1) land mask
  done;
  t.keys.(!i) <- k;
  t.vals.(!i) <- v;
  t.size <- t.size + 1

let resize t bits =
  let keys = t.keys and vals = t.vals in
  t.keys <- Array.make (1 lsl bits) vacant;
  t.vals <- Array.make (1 lsl bits) t.dummy;
  t.bits <- bits;
  t.size <- 0;
  Array.iteri (fun i k -> if k <> vacant then insert t k vals.(i)) keys

let replace t k v =
  if k < 0 then invalid_arg "Int_table.replace: negative key";
  let i = slot t k in
  if i >= 0 then t.vals.(i) <- v
  else begin
    if 2 * (t.size + 1) > Array.length t.keys then
      resize t (t.bits + 1);
    insert t k v
  end

let remove t k =
  let i = slot t k in
  if i >= 0 then begin
    let mask = Array.length t.keys - 1 in
    (* [hole] is to be vacated; walk the rest of the run and pull back
       every entry whose home does not lie cyclically in (hole, j]. *)
    let hole = ref i and j = ref ((i + 1) land mask) in
    while t.keys.(!j) <> vacant do
      let h = home ~bits:t.bits t.keys.(!j) in
      let stays =
        if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
      in
      if not stays then begin
        t.keys.(!hole) <- t.keys.(!j);
        t.vals.(!hole) <- t.vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.keys.(!hole) <- vacant;
    t.vals.(!hole) <- t.dummy;
    t.size <- t.size - 1
  end

let reset t =
  t.keys <- Array.make (1 lsl initial_bits) vacant;
  t.vals <- Array.make (1 lsl initial_bits) t.dummy;
  t.bits <- initial_bits;
  t.size <- 0
