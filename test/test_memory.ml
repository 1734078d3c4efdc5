(* Tests for packets, pools, and shared memory regions. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_packet_make () =
  let gen = Memory.Packet.Id_gen.create () in
  let p =
    Memory.Packet.make
      ~id:(Memory.Packet.Id_gen.next gen)
      ~src:1 ~dst:2 ~wire_bytes:1500 ~payload_bytes:1400 Memory.Packet.Empty ()
  in
  check_int "id" 0 p.Memory.Packet.id;
  check_int "wire" 1500 p.Memory.Packet.wire_bytes;
  check_int "ids increment" 1 (Memory.Packet.Id_gen.next gen)

let test_packet_invalid () =
  Alcotest.check_raises "zero bytes rejected"
    (Invalid_argument "Packet.make: wire_bytes") (fun () ->
      ignore
        (Memory.Packet.make ~id:0 ~src:0 ~dst:1 ~wire_bytes:0
           Memory.Packet.Empty ()))

let test_pool_accounting () =
  let p = Memory.Pool.create ~name:"pkt" ~capacity_bytes:10_000 in
  let a = Memory.Pool.alloc p ~owner:"app1" ~bytes:4_000 in
  let b = Memory.Pool.alloc p ~owner:"app2" ~bytes:3_000 in
  check_int "in use" 7_000 (Memory.Pool.in_use p);
  check_int "app1" 4_000 (Memory.Pool.owner_usage p "app1");
  check_int "app2" 3_000 (Memory.Pool.owner_usage p "app2");
  Memory.Pool.free a;
  check_int "after free" 3_000 (Memory.Pool.in_use p);
  check_int "app1 after free" 0 (Memory.Pool.owner_usage p "app1");
  Memory.Pool.free b;
  check_int "empty" 0 (Memory.Pool.in_use p);
  check_int "watermark" 7_000 (Memory.Pool.high_watermark p)

let test_pool_exhaustion () =
  let p = Memory.Pool.create ~name:"pkt" ~capacity_bytes:1_000 in
  let _keep = Memory.Pool.alloc p ~owner:"a" ~bytes:900 in
  check_bool "try_alloc fails" true
    (Memory.Pool.try_alloc_from (Memory.Pool.account p ~owner:"a") ~bytes:200
     = None);
  Alcotest.check_raises "alloc raises" (Memory.Pool.Exhausted "pkt") (fun () ->
      ignore (Memory.Pool.alloc p ~owner:"a" ~bytes:200))

let test_pool_double_free () =
  let p = Memory.Pool.create ~name:"pkt" ~capacity_bytes:1_000 in
  let a = Memory.Pool.alloc p ~owner:"a" ~bytes:100 in
  Memory.Pool.free a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Pool.free: double free") (fun () -> Memory.Pool.free a)

(* An account outlives a zero charge: its generation survives, so a
   bulk release still fences the allocations made before it. *)
let test_pool_account_cycle () =
  let p = Memory.Pool.create ~name:"pkt" ~capacity_bytes:10_000 in
  let acct = Memory.Pool.account p ~owner:"eng0" in
  let take bytes = Option.get (Memory.Pool.try_alloc_from acct ~bytes) in
  let usage () = Memory.Pool.owner_usage p "eng0" in
  Memory.Pool.free (take 300);
  check_int "charge falls to zero" 0 (usage ());
  let b = take 200 in
  let c = Memory.Pool.alloc p ~owner:"eng0" ~bytes:100 in
  check_int "charge rises again, by account and by name" 300 (usage ());
  check_bool "consistent" true (Memory.Pool.check_consistency p = None);
  check_int "bulk release returns the charge" 300
    (Memory.Pool.release_owner p ~owner:"eng0");
  check_int "pool drained" 0 (Memory.Pool.in_use p);
  Memory.Pool.free b;
  check_int "stale free is a no-op" 0 (Memory.Pool.in_use p);
  let d = take 50 in
  Memory.Pool.free c;
  check_int "stale free leaves the new generation's charge" 50 (usage ());
  Memory.Pool.free d;
  check_int "drained again" 0 (Memory.Pool.in_use p);
  check_bool "still consistent" true (Memory.Pool.check_consistency p = None)

let pool_prop_balance =
  QCheck.Test.make ~name:"pool usage returns to zero after freeing all"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 100))
    (fun sizes ->
      let p = Memory.Pool.create ~name:"p" ~capacity_bytes:1_000_000 in
      let allocs =
        List.map (fun b -> Memory.Pool.alloc p ~owner:"x" ~bytes:b) sizes
      in
      List.iter Memory.Pool.free allocs;
      Memory.Pool.in_use p = 0 && Memory.Pool.owner_usage p "x" = 0)

let test_region_backed_rw () =
  let r = Memory.Region.create ~id:1 ~size:4096 ~owner:"app" () in
  check_bool "backed" true (Memory.Region.is_backed r);
  Memory.Region.write_int64 r 200 0x1122334455667788L;
  Alcotest.(check int64)
    "int64 roundtrip" 0x1122334455667788L
    (Memory.Region.read_int64 r 200)

let test_region_unbacked () =
  let r = Memory.Region.create ~backed:false ~id:2 ~size:1_000_000 ~owner:"app" () in
  check_bool "unbacked" false (Memory.Region.is_backed r);
  (* Synthetic contents are deterministic. *)
  let a = Memory.Region.read_int64 r 500 in
  let again () = Int64.equal a (Memory.Region.read_int64 r 500) in
  check_bool "deterministic" true (again ());
  (* Writes are ignored without error. *)
  Memory.Region.write_int64 r 500 0x7979L;
  check_bool "write ignored" true (again ())

let test_region_bounds () =
  let r = Memory.Region.create ~id:3 ~size:128 ~owner:"app" () in
  Alcotest.check_raises "oob read" (Invalid_argument "Region: out of range access")
    (fun () -> ignore (Memory.Region.read_int64 r 124));
  Alcotest.check_raises "oob write" (Invalid_argument "Region: out of range access")
    (fun () -> Memory.Region.write_int64 r (-1) 0L)

(* -- Arena ------------------------------------------------------------- *)

(* 200 values outgrow the first 64 slots twice. *)
let test_arena_alloc_get_free () =
  let a = Memory.Arena.create () in
  let hs = Array.init 200 (fun i -> Memory.Arena.alloc a i) in
  check_bool "every value behind its handle" true
    (Array.for_all Fun.id
       (Array.mapi (fun i h -> Memory.Arena.get a h = Some i) hs));
  check_bool "free" true (Memory.Arena.free a hs.(100));
  Alcotest.(check (option int)) "stale get" None (Memory.Arena.get a hs.(100));
  Alcotest.(check (option int)) "neighbours stay" (Some 101)
    (Memory.Arena.get a hs.(101));
  Alcotest.(check (option int)) "first slot stays" (Some 0)
    (Memory.Arena.get a hs.(0))

let test_arena_stale_handle_is_noop () =
  (* Mirrors Pool.release_owner: a handle minted under an older
     generation must miss even after the slot is reused. *)
  let a = Memory.Arena.create () in
  let h = Memory.Arena.alloc a 1 in
  check_bool "first free" true (Memory.Arena.free a h);
  check_bool "double free is checked no-op" false (Memory.Arena.free a h);
  let h' = Memory.Arena.alloc a 2 in
  Alcotest.(check (option int)) "old handle misses new occupant" None
    (Memory.Arena.get a h);
  check_bool "stale free does not evict new occupant" false
    (Memory.Arena.free a h);
  Alcotest.(check (option int)) "new handle still live" (Some 2)
    (Memory.Arena.get a h')

(* [take] is how the NIC and the fabric collect a parked packet: it
   hands the value back once and vacates the slot, so a second take on
   the same handle is a checked miss even after the slot is reused. *)
let test_arena_take () =
  let a = Memory.Arena.create () in
  let h = Memory.Arena.alloc a "pkt" in
  Alcotest.(check (option string)) "take returns the value" (Some "pkt")
    (Memory.Arena.take a h);
  Alcotest.(check (option string)) "slot vacated" None (Memory.Arena.get a h);
  let h' = Memory.Arena.alloc a "next" in
  Alcotest.(check (option string)) "second take misses" None
    (Memory.Arena.take a h);
  Alcotest.(check (option string)) "new occupant untouched" (Some "next")
    (Memory.Arena.take a h');
  check_bool "taken handle cannot be freed" false (Memory.Arena.free a h')

let arena_prop_generations =
  QCheck.Test.make ~name:"arena handles never alias across reuse" ~count:200
    QCheck.(list (int_bound 9))
    (fun ops ->
      let a = Memory.Arena.create () in
      let live = Hashtbl.create 16 in
      let freed = ref [] in
      let next = ref 0 in
      List.for_all
        (fun op ->
          if op < 6 then begin
            let v = !next in
            incr next;
            Hashtbl.replace live (Memory.Arena.alloc a v) v;
            true
          end
          else
            match Hashtbl.fold (fun h v acc -> (h, v) :: acc) live [] with
            | [] -> true
            | (h, v) :: _ ->
                Hashtbl.remove live h;
                let ok =
                  Memory.Arena.get a h = Some v && Memory.Arena.free a h
                in
                freed := h :: !freed;
                ok
                && List.for_all
                     (fun h -> Memory.Arena.get a h = None)
                     !freed)
        ops
      && Hashtbl.fold
           (fun h v ok -> ok && Memory.Arena.get a h = Some v)
           live true)

(* -- Int_table ---------------------------------------------------------- *)

(* Random replace/remove/find against Stdlib's Hashtbl as the model.
   Keys come from a small range, so probe runs collide, wrap around
   the slot array and are cut by removals, and longer cases grow the
   table several times. *)
let int_table_prop_model =
  QCheck.Test.make ~name:"int table matches a Hashtbl model" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 40)))
    (fun ops ->
      let t = Memory.Int_table.create ~dummy:(-1) () in
      let model = Hashtbl.create 16 in
      let agrees k =
        match (Memory.Int_table.find t k, Hashtbl.find_opt model k) with
        | v, Some w -> v = w
        | _, None -> false
        | exception Not_found -> not (Hashtbl.mem model k)
      in
      List.for_all
        (fun (op, k) ->
          (match op with
          | 0 ->
              Memory.Int_table.replace t k (k * 7);
              Hashtbl.replace model k (k * 7)
          | 1 ->
              Memory.Int_table.remove t k;
              Hashtbl.remove model k
          | _ -> ());
          Memory.Int_table.length t = Hashtbl.length model
          && List.for_all agrees (List.init 41 Fun.id))
        ops
      &&
      (Memory.Int_table.reset t;
       Memory.Int_table.length t = 0
       && List.for_all
            (fun k ->
              match Memory.Int_table.find t k with
              | _ -> false
              | exception Not_found -> true)
            (List.init 41 Fun.id)))

let test_int_table_negative_key () =
  let t = Memory.Int_table.create ~dummy:"" () in
  Alcotest.check_raises "negative key"
    (Invalid_argument "Int_table.replace: negative key") (fun () ->
      Memory.Int_table.replace t (-1) "x");
  check_bool "negative key is unbound" true
    (match Memory.Int_table.find t (-1) with
    | _ -> false
    | exception Not_found -> true)

let () =
  Alcotest.run "memory"
    [
      ( "packet",
        [
          Alcotest.test_case "make" `Quick test_packet_make;
          Alcotest.test_case "invalid" `Quick test_packet_invalid;
        ] );
      ( "pool",
        [
          Alcotest.test_case "accounting" `Quick test_pool_accounting;
          Alcotest.test_case "exhaustion" `Quick test_pool_exhaustion;
          Alcotest.test_case "double free" `Quick test_pool_double_free;
          QCheck_alcotest.to_alcotest pool_prop_balance;
          Alcotest.test_case "account cycle" `Quick test_pool_account_cycle;
        ] );
      ( "arena",
        [
          Alcotest.test_case "alloc/get/free" `Quick test_arena_alloc_get_free;
          Alcotest.test_case "stale handle no-op" `Quick
            test_arena_stale_handle_is_noop;
          Alcotest.test_case "take vacates its slot" `Quick test_arena_take;
          QCheck_alcotest.to_alcotest arena_prop_generations;
        ] );
      ( "table",
        [
          QCheck_alcotest.to_alcotest int_table_prop_model;
          Alcotest.test_case "negative key" `Quick test_int_table_negative_key;
        ] );
      ( "region",
        [
          Alcotest.test_case "backed rw" `Quick test_region_backed_rw;
          Alcotest.test_case "unbacked" `Quick test_region_unbacked;
          Alcotest.test_case "bounds" `Quick test_region_bounds;
        ] );
    ]
