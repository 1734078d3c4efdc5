(* Array-based binary min-heap of int payloads ordered by (key, tie,
   seq).  The sequence number makes pops deterministic under equal keys:
   FIFO among ties.

   A non-zero [salt] perturbs only the tie-break: equal-key entries pop
   in an order that is a deterministic function of (salt, seq) instead
   of FIFO.  Every salt still yields a total order, so a salted run is
   exactly as reproducible as an unsalted one — the perturbation sweep
   uses this to flush out code that silently depends on FIFO ties.

   Entries live in four parallel int arrays rather than as boxed
   records: a sift level moves one int per array into a hole instead of
   swapping pointers in a major-heap array, so no level allocates or
   takes the write barrier.  The tie rank is computed once, at
   insertion. *)

type t = {
  mutable keys : int array;
  mutable ties : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
  mutable next_seq : int;
  salt : int;
}

let initial = 16

let create ?(salt = 0) () =
  {
    keys = Array.make initial 0;
    ties = Array.make initial 0;
    seqs = Array.make initial 0;
    vals = Array.make initial 0;
    size = 0;
    next_seq = 0;
    salt;
  }

let length h = h.size
let is_empty h = h.size = 0
let salt h = h.salt

(* SplitMix64-style avalanche over (salt, seq): deterministic, well
   mixed, and injective for a fixed salt, so (tie, seq) is a total
   order on ties. *)
let mix salt seq =
  let z = (seq lxor (salt * 0x27d4eb2f165667c5)) land max_int in
  let z = (z lxor (z lsr 29)) * 0x2545f4914f6cdd1d land max_int in
  let z = (z lxor (z lsr 32)) * 0x27d4eb2f165667c5 land max_int in
  z lxor (z lsr 29)

let tie_rank ~salt seq = if salt = 0 then seq else mix salt seq

(* Entry [i] of the arrays orders strictly before (key, tie, seq).
   Ties and seqs are loaded only when the keys are equal. *)
let[@inline] entry_before (keys : int array) (ties : int array)
    (seqs : int array) i key tie seq =
  let k = keys.(i) in
  k < key
  || k = key
     &&
     let t = ties.(i) in
     t < tie || (t = tie && seqs.(i) < seq)

let grow h =
  let cap = 2 * Array.length h.keys in
  let extend a =
    let fresh = Array.make cap 0 in
    Array.blit a 0 fresh 0 h.size;
    fresh
  in
  h.keys <- extend h.keys;
  h.ties <- extend h.ties;
  h.seqs <- extend h.seqs;
  h.vals <- extend h.vals

let add h ~key v =
  if h.size = Array.length h.keys then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let tie = tie_rank ~salt:h.salt seq in
  let keys = h.keys and ties = h.ties and seqs = h.seqs and vals = h.vals in
  (* Sift the hole up from the new last position. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if entry_before keys ties seqs p key tie seq then rising := false
    else begin
      keys.(!i) <- keys.(p);
      ties.(!i) <- ties.(p);
      seqs.(!i) <- seqs.(p);
      vals.(!i) <- vals.(p);
      i := p
    end
  done;
  keys.(!i) <- key;
  ties.(!i) <- tie;
  seqs.(!i) <- seq;
  vals.(!i) <- v

let top_key h =
  if h.size = 0 then invalid_arg "Heap.top_key: empty";
  h.keys.(0)

let pop_exn h =
  let n = h.size - 1 in
  if n < 0 then invalid_arg "Heap.pop_exn: empty";
  let keys = h.keys and ties = h.ties and seqs = h.seqs and vals = h.vals in
  let top = vals.(0) in
  h.size <- n;
  if n > 0 then begin
    (* Sift the hole left at the root down, then drop the former last
       entry into it. *)
    let key = keys.(n) and tie = ties.(n) and seq = seqs.(n) in
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        (* The smaller child [c], with its key [kc]. *)
        let c = ref l and kc = ref keys.(l) in
        let r = l + 1 in
        if r < n then begin
          let kr = keys.(r) in
          if
            kr < !kc
            || kr = !kc
               && (ties.(r) < ties.(l)
                  || (ties.(r) = ties.(l) && seqs.(r) < seqs.(l)))
          then begin
            c := r;
            kc := kr
          end
        end;
        let c = !c and kc = !kc in
        if
          kc < key
          || kc = key
             && (ties.(c) < tie || (ties.(c) = tie && seqs.(c) < seq))
        then begin
          keys.(!i) <- kc;
          ties.(!i) <- ties.(c);
          seqs.(!i) <- seqs.(c);
          vals.(!i) <- vals.(c);
          i := c
        end
        else sinking := false
      end
    done;
    keys.(!i) <- key;
    ties.(!i) <- tie;
    seqs.(!i) <- seq;
    vals.(!i) <- vals.(n)
  end;
  top

(* Structural sanity: every parent orders before its children under the
   heap's own comparison, and the bookkeeping fields are coherent.  Used
   by the invariant checker. *)
let validate h =
  if h.size < 0 || h.size > Array.length h.keys then
    Some
      (Printf.sprintf "heap size %d outside backing array [0,%d]" h.size
         (Array.length h.keys))
  else begin
    let bad = ref None in
    for i = 1 to h.size - 1 do
      let parent = (i - 1) lsr 1 in
      if
        !bad = None
        && entry_before h.keys h.ties h.seqs i h.keys.(parent)
             h.ties.(parent) h.seqs.(parent)
      then
        bad :=
          Some
            (Printf.sprintf
               "heap order violated at index %d: child key %d before parent \
                key %d"
               i h.keys.(i) h.keys.(parent))
    done;
    !bad
  end
