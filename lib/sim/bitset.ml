(* Bitset of 32-member words.  32 keeps the lowest-set-bit search to one
   de Bruijn multiply whose product fits in an OCaml int; [count] lets
   [next] answer an empty set with one compare, which is all an empty
   set costs a pass. *)

let shift = 5
let mask = (1 lsl shift) - 1

type t = { mutable words : int array; mutable count : int }

let create () = { words = [||]; count = 0 }

let set t i =
  if i < 0 then invalid_arg "Bitset.set: negative index";
  let w = i lsr shift in
  let n = Array.length t.words in
  if w >= n then begin
    let fresh = Array.make (Int.max (w + 1) (2 * n)) 0 in
    Array.blit t.words 0 fresh 0 n;
    t.words <- fresh
  end;
  let b = 1 lsl (i land mask) in
  let x = t.words.(w) in
  if x land b = 0 then begin
    t.words.(w) <- x lor b;
    t.count <- t.count + 1
  end

let clear t i =
  let w = i lsr shift in
  if i >= 0 && w < Array.length t.words then begin
    let b = 1 lsl (i land mask) in
    let x = t.words.(w) in
    if x land b <> 0 then begin
      t.words.(w) <- x land lnot b;
      t.count <- t.count - 1
    end
  end

let reset t =
  if t.count > 0 then begin
    Array.fill t.words 0 (Array.length t.words) 0;
    t.count <- 0
  end

(* Bit position of the lowest set bit of a non-zero 32-bit word. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lowest_bit x =
  debruijn.((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let next t i =
  if t.count = 0 then -1
  else begin
    let i = Int.max i 0 in
    let n = Array.length t.words in
    let w = ref (i lsr shift) in
    if !w >= n then -1
    else begin
      let x = ref (t.words.(!w) land ((-1) lsl (i land mask))) in
      while !x = 0 && !w < n - 1 do
        incr w;
        x := t.words.(!w)
      done;
      if !x = 0 then -1 else (!w lsl shift) lor lowest_bit !x
    end
  end
