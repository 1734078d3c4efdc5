module Time = Sim.Time

(* Compute chunk granularity: an MD5 block batch between scheduler
   boundaries. *)
let md5_chunk = Time.us 200
let md5_pause = Time.us 20

(* Reduced priority relative to the load-generating network jobs. *)
let md5_nice = 5

(* One non-preemptible mmap+munmap of a 50 MB buffer, then a short
   preemptible gap. *)
let mmap_section = Time.ms 2
let mmap_gap = Time.us 50

let spawn_md5 machine ?(threads = 4) () =
  List.init threads (fun i ->
      Cpu.Thread.spawn machine
        ~name:(Printf.sprintf "md5-antagonist%d" i)
        ~account:"antagonist"
        ~klass:(Cpu.Sched.Cfs { nice = md5_nice })
        (fun ctx ->
          while true do
            (* Continually wake: burst of hashing, short doze, again. *)
            for _ = 1 to 10 do
              Cpu.Thread.compute ctx md5_chunk
            done;
            Cpu.Thread.sleep ctx md5_pause
          done))

let spawn_mmap machine ?(threads = 2) () =
  List.init threads (fun i ->
      Cpu.Thread.spawn machine
        ~name:(Printf.sprintf "mmap-antagonist%d" i)
        ~account:"antagonist"
        ~klass:(Cpu.Sched.Cfs { nice = 0 })
        (fun ctx ->
          while true do
            Cpu.Thread.compute_nonpreemptible ctx mmap_section;
            Cpu.Thread.sleep ctx mmap_gap
          done))
