(* Tests for SPSC rings, mailboxes, and notifiers. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_spsc_fifo () =
  let q = Squeue.Spsc.create ~capacity:4 () in
  check_bool "push 1" true (Squeue.Spsc.push q ~now:0 1);
  check_bool "push 2" true (Squeue.Spsc.push q ~now:0 2);
  check_bool "push 3" true (Squeue.Spsc.push q ~now:0 3);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Squeue.Spsc.pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Squeue.Spsc.pop q);
  check_bool "push 4" true (Squeue.Spsc.push q ~now:0 4);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Squeue.Spsc.pop q);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Squeue.Spsc.pop q);
  Alcotest.(check (option int)) "empty" None (Squeue.Spsc.pop q)

let test_spsc_full_drop () =
  let q = Squeue.Spsc.create ~capacity:2 () in
  check_bool "a" true (Squeue.Spsc.push q ~now:0 'a');
  check_bool "b" true (Squeue.Spsc.push q ~now:0 'b');
  check_bool "c rejected" false (Squeue.Spsc.push q ~now:0 'c');
  check_int "full" 2 (Squeue.Spsc.length q)

let test_spsc_oldest_age () =
  let q = Squeue.Spsc.create ~capacity:8 () in
  check_int "empty age" 0 (Squeue.Spsc.oldest_age q ~now:100);
  ignore (Squeue.Spsc.push q ~now:10 "x");
  ignore (Squeue.Spsc.push q ~now:50 "y");
  check_int "age of head" 90 (Squeue.Spsc.oldest_age q ~now:100);
  ignore (Squeue.Spsc.pop q);
  check_int "age of next" 50 (Squeue.Spsc.oldest_age q ~now:100)

let test_spsc_drain () =
  let q = Squeue.Spsc.create ~capacity:16 () in
  for i = 1 to 10 do
    ignore (Squeue.Spsc.push q ~now:0 i)
  done;
  let sum = ref 0 and n = ref 0 in
  let rec drain () =
    match Squeue.Spsc.pop q with
    | Some v ->
        sum := !sum + v;
        incr n;
        drain ()
    | None -> ()
  in
  drain ();
  check_int "drained" 10 !n;
  check_int "sum" 55 !sum;
  check_bool "empty after" true (Squeue.Spsc.is_empty q)

let test_spsc_wraparound () =
  (* Cycle a small ring many times so head/tail indices cross the
     capacity boundary repeatedly; FIFO order and occupancy must hold
     through every wrap. *)
  let cap = 4 in
  let q = Squeue.Spsc.create ~capacity:cap () in
  let next = ref 0 and expect = ref 0 in
  for _cycle = 1 to 5 * cap do
    for _ = 1 to cap do
      check_bool "push" true (Squeue.Spsc.push q ~now:0 !next);
      incr next
    done;
    check_int "length at capacity" cap (Squeue.Spsc.length q);
    for _ = 1 to cap do
      Alcotest.(check (option int)) "pop in order" (Some !expect)
        (Squeue.Spsc.pop q);
      incr expect
    done;
    check_bool "empty after drain" true (Squeue.Spsc.is_empty q)
  done

let test_spsc_full_ring_wrap () =
  (* Hold the ring at capacity while sliding the window forward: every
     freed slot is immediately reused, which exercises the slot-reuse
     path right at the wrap point. *)
  let cap = 3 in
  let q = Squeue.Spsc.create ~capacity:cap () in
  for i = 0 to cap - 1 do
    check_bool "fill" true (Squeue.Spsc.push q ~now:0 i)
  done;
  for i = cap to cap + 20 do
    check_bool "push at capacity rejected" false (Squeue.Spsc.push q ~now:0 i);
    Alcotest.(check (option int)) "window head" (Some (i - cap))
      (Squeue.Spsc.pop q);
    check_bool "reuse freed slot" true (Squeue.Spsc.push q ~now:0 i);
    check_int "full again" cap (Squeue.Spsc.length q)
  done;
  for i = 21 to 21 + cap - 1 do
    Alcotest.(check (option int)) "tail order" (Some i) (Squeue.Spsc.pop q)
  done;
  Alcotest.(check (option int)) "empty" None (Squeue.Spsc.pop q)

let spsc_prop_occupancy =
  QCheck.Test.make
    ~name:"spsc occupancy gauge agrees with push/pop accounting" ~count:200
    QCheck.(list (int_bound 1))
    (fun ops ->
      let q = Squeue.Spsc.create ~capacity:3 () in
      let pushes = ref 0 and pops = ref 0 in
      let ok = ref true in
      let check_gauges () =
        let occ = !pushes - !pops in
        if Squeue.Spsc.length q <> occ then ok := false;
        if Squeue.Spsc.is_empty q <> (occ = 0) then ok := false;
        if occ > 3 then ok := false
      in
      List.iter
        (fun op ->
          (if op = 0 then begin
             if Squeue.Spsc.push q ~now:0 op then incr pushes
           end
           else match Squeue.Spsc.pop q with
             | Some _ -> incr pops
             | None -> ());
          check_gauges ())
        ops;
      !ok)

let spsc_prop_fifo =
  QCheck.Test.make ~name:"spsc preserves FIFO order under interleaving"
    ~count:200
    QCheck.(list (int_bound 1))
    (fun ops ->
      (* op 0 = push next int, op 1 = pop *)
      let q = Squeue.Spsc.create ~capacity:1024 () in
      let next = ref 0 in
      let expect = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op = 0 then begin
            if Squeue.Spsc.push q ~now:0 !next then incr next
          end
          else
            match Squeue.Spsc.pop q with
            | Some v ->
                if v <> !expect then ok := false;
                incr expect
            | None -> ())
        ops;
      !ok)

(* Slot storage grows on demand.  Grow while the ring is wrapped (head
   past 0, tail behind it), keep growing up to a capacity that is not a
   power of two, and check order, ages and the capacity bound
   throughout. *)
let test_spsc_growth () =
  let cap = 100 in
  let q = Squeue.Spsc.create ~capacity:cap () in
  let next = ref 0 and expect = ref 0 in
  let push () =
    check_bool "push" true (Squeue.Spsc.push q ~now:(10 * !next) !next);
    incr next
  in
  let pop () =
    Alcotest.(check (option int)) "pop in order" (Some !expect) (Squeue.Spsc.pop q);
    incr expect
  in
  for _ = 1 to 6 do push () done;
  for _ = 1 to 4 do pop () done;
  (* Head is 4; these wrap the tail round to slot 3, then outgrow the
     storage with the ring wrapped. *)
  for _ = 1 to 7 do push () done;
  check_int "length across growth" 9 (Squeue.Spsc.length q);
  check_int "oldest age after growth" (1000 - (10 * !expect))
    (Squeue.Spsc.oldest_age q ~now:1000);
  for _ = 1 to 3 do pop () done;
  (* Slide the window through several more growths and wraps. *)
  for round = 1 to 50 do
    for _ = 1 to round mod 7 + 2 do
      if Squeue.Spsc.length q < cap then push ()
    done;
    for _ = 1 to round mod 5 do
      if not (Squeue.Spsc.is_empty q) then pop ()
    done
  done;
  while Squeue.Spsc.length q < cap do push () done;
  check_bool "push at capacity rejected" false (Squeue.Spsc.push q ~now:0 (-1));
  check_int "oldest age at capacity" (100_000 - (10 * !expect))
    (Squeue.Spsc.oldest_age q ~now:100_000);
  while not (Squeue.Spsc.is_empty q) do pop () done;
  check_int "every push popped" !next !expect

let test_spsc_footprint () =
  let q = Squeue.Spsc.create ~capacity:4096 () in
  let words = Obj.reachable_words (Obj.repr q) in
  check_bool
    (Printf.sprintf "a fresh 4096-slot ring holds %d < 64 words" words)
    true (words < 64);
  for i = 1 to 1000 do
    ignore (Squeue.Spsc.push q ~now:i i)
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Squeue.Spsc.pop q)
  done;
  let popped = Gc.minor_words () -. before in
  check_int "minor words for 1000 pops" 0 (int_of_float popped);
  check_bool "drained" true (Squeue.Spsc.is_empty q)

let test_mailbox () =
  let mb = Squeue.Mailbox.create () in
  let ran = ref 0 in
  check_bool "post" true (Squeue.Mailbox.post mb (fun () -> ran := 1));
  check_bool "second post fails" false (Squeue.Mailbox.post mb (fun () -> ran := 2));
  check_int "occupied" 1 (Squeue.Mailbox.posted mb - Squeue.Mailbox.serviced mb);
  check_bool "service runs" true (Squeue.Mailbox.service mb);
  check_int "first work ran" 1 !ran;
  check_bool "service idle" false (Squeue.Mailbox.service mb);
  check_bool "post again" true (Squeue.Mailbox.post mb (fun () -> ran := 3));
  check_bool "service again" true (Squeue.Mailbox.service mb);
  check_int "second work ran" 3 !ran;
  check_int "posted" 2 (Squeue.Mailbox.posted mb);
  check_int "serviced" 2 (Squeue.Mailbox.serviced mb)

let test_mailbox_cycles () =
  (* The depth-one mailbox reuses its single slot forever: many
     post/service cycles must neither wedge nor let a second post slip
     in while occupied, and the counters must agree at every step. *)
  let mb = Squeue.Mailbox.create () in
  let ran = ref 0 in
  for i = 1 to 100 do
    check_bool "post into empty slot" true
      (Squeue.Mailbox.post mb (fun () -> ran := i));
    check_bool "occupied rejects" false
      (Squeue.Mailbox.post mb (fun () -> ran := -1));
    check_bool "service" true (Squeue.Mailbox.service mb);
    check_int "ran posted work" i !ran;
    check_int "posted count" i (Squeue.Mailbox.posted mb);
    check_int "serviced count" i (Squeue.Mailbox.serviced mb);
    check_int "slot free again" 0
      (Squeue.Mailbox.posted mb - Squeue.Mailbox.serviced mb)
  done

let test_notifier_armed () =
  let n = Squeue.Notifier.create () in
  let fired = ref 0 in
  Squeue.Notifier.arm n (fun () -> incr fired);
  Squeue.Notifier.signal n;
  check_int "fired once" 1 !fired;
  (* Disarmed after firing; signal latches. *)
  Squeue.Notifier.signal n;
  check_int "not fired again" 1 !fired;
  Squeue.Notifier.arm n (fun () -> incr fired);
  check_int "latched signal fires on arm" 2 !fired

let test_notifier_coalesce () =
  let n = Squeue.Notifier.create () in
  Squeue.Notifier.signal n;
  Squeue.Notifier.signal n;
  Squeue.Notifier.signal n;
  let fired = ref 0 in
  Squeue.Notifier.arm n (fun () -> incr fired);
  check_int "coalesced to one" 1 !fired

let () =
  Alcotest.run "squeue"
    [
      ( "spsc",
        [
          Alcotest.test_case "fifo" `Quick test_spsc_fifo;
          Alcotest.test_case "full drop" `Quick test_spsc_full_drop;
          Alcotest.test_case "oldest age" `Quick test_spsc_oldest_age;
          Alcotest.test_case "drain" `Quick test_spsc_drain;
          Alcotest.test_case "wrap-around" `Quick test_spsc_wraparound;
          Alcotest.test_case "full ring at wrap" `Quick test_spsc_full_ring_wrap;
          Alcotest.test_case "growth keeps order and bounds" `Quick
            test_spsc_growth;
          Alcotest.test_case "small when fresh, pop allocates nothing" `Quick
            test_spsc_footprint;
          QCheck_alcotest.to_alcotest spsc_prop_occupancy;
          QCheck_alcotest.to_alcotest spsc_prop_fifo;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "depth one" `Quick test_mailbox;
          Alcotest.test_case "repeated cycles" `Quick test_mailbox_cycles;
        ] );
      ( "notifier",
        [
          Alcotest.test_case "armed" `Quick test_notifier_armed;
          Alcotest.test_case "coalesce" `Quick test_notifier_coalesce;
        ] );
    ]
