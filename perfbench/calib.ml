(* The host's speed, measured around every sample.

   On the shared 2-vCPU host this benchmark was tuned on, the same
   deterministic computation runs up to twice as fast at one moment as
   at another, and the average speed over a whole run moved by 37%
   (quartile spread over the median) from run to run.  Process CPU time
   follows wall time there, so it is the machine that is slower, not
   the process that waits.  Raw seconds then cannot hold any regression
   bound of 25% or less.  So every timed sample runs between two runs
   of a fixed kernel, and is reported at a reference speed:

     reported = measured * reference_s / kernel time   (seconds)
     reported = measured * kernel time / reference_s   (nets/s)

   The speed drifts over about a second (kernel times a second apart
   are uncorrelated), so the kernel time for a sample is the mean of
   the two runs around it, shrunk towards the run's median kernel time
   the longer the sample is: a short sample happens at the speed its
   neighbours see, a twenty-second one at the run's usual speed.

   Apart from reading the clock, the kernel calls no code of this
   repository, and it allocates nothing, so neither the program's code
   nor its GC settings reach it; what moves it is the machine.  Only
   the quality metrics are not scaled.  The median factor is printed
   on stderr. *)

module Clock = Merlin_exec.Clock

(* Four read-modify-write sweeps over 16 MB, far beyond the caches:
   memory bandwidth is what the host loses when it slows down, and what
   the routing code's allocation leans on.  Over four minutes on the
   tuning host, ten-second medians of this kernel followed those of a
   Flow I loop with slope 1.0 on log scales (correlation 0.95); a
   cache-resident pointer chase followed them with slope 1.9, too
   flat to cancel the drift.  About 10 ms at the reference speed. *)
let table = Array.make (1 lsl 21) 1

let kernel () =
  let t0 = Clock.monotonic_s () in
  let s = ref 0 in
  for _ = 1 to 4 do
    for i = 0 to Array.length table - 1 do
      s := !s + Array.unsafe_get table i;
      Array.unsafe_set table i (!s land 7)
    done
  done;
  Clock.elapsed_s t0

let reference_s = 0.010

(* A timed stretch of the run: its length (s) and how much slower than
   the reference the host ran around it. *)
type window = { length : float; local : float }

(* Every window of the run. *)
let windows = ref []

(* [around f] runs [f] between two kernel runs: its result and its
   window. *)
let around f =
  let k0 = kernel () in
  let x, length = Clock.timed f in
  let k1 = kernel () in
  let w = { length; local = (k0 +. k1) /. 2.0 /. reference_s } in
  windows := w :: !windows;
  (x, w)

(* Seconds of [f] and their window. *)
let timed f =
  let (x, t), w = around (fun () -> Clock.timed f) in
  (x, (t, w))

let run_factor () = Spec.median (List.map (fun w -> w.local) !windows)

(* The factor for window [w], once the run's windows are all in: the
   local one weighs 1 / (1 + length / 1 s). *)
let factor w =
  let local_weight = 1.0 /. (1.0 +. w.length) in
  (local_weight *. w.local) +. ((1.0 -. local_weight) *. run_factor ())

(* A sample at the reference speed: seconds, or a rate per second. *)
let seconds (t, w) = t /. factor w
let per_second (v, w) = v *. factor w
