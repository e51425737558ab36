(** Program-counter sampling profiler for host-time attribution.

    [start] arms [ITIMER_PROF]; every [SIGPROF] it raises records the
    program counter the signal interrupted, and [stop] returns them.
    [write_report] names each PC's function from [nm -n] of the running
    executable, shifted by the load offset of one known symbol, so a
    position-independent executable symbolizes too.  The report lists
    samples, share and name per function, with the total and the rate the
    kernel actually delivered, which its tick can cap below the 1000 Hz
    asked.

    The timer counts the CPU time of the whole process, and each signal
    interrupts whichever thread is running, so samples come from every
    domain: a stretch where two domains run gets twice the samples per
    second of wall-clock time.  Two signals handled at once on two
    threads take different slots.

    Linux x86-64 only: elsewhere {!supported} is false and {!start}
    raises [Failure]. *)

val supported : bool

val platform : string
(** The target the library was built for, e.g. ["linux-x86_64"]. *)

type profile = {
  samples : int array;  (** Interrupted PCs, in sampling order. *)
  dropped : int;  (** Samples lost to a full buffer. *)
  cpu_s : float;  (** Process CPU time between [start] and [stop]. *)
}

val has_signal_stack : unit -> bool
(** Whether the calling thread has an alternate signal stack for the
    handler to run on; false on unsupported targets.  The OCaml runtime
    gives each domain's thread one. *)

val start : unit -> unit
(** Start sampling at 1000 samples per second of process CPU time, on
    every domain.
    Raises [Failure] when already sampling or on an unsupported
    target. *)

val stop : unit -> profile

val write_report : out_channel -> profile -> unit
(** A header line ["# pc-profile: N samples over S s of CPU time, R Hz
    obtained (1000 Hz asked), D dropped"], a column line, then one line per
    function, most samples first.  OCaml functions are named without
    their numeric stamp ([camlSt_sim__Sched.dispatch]), so two builds'
    reports line up.  PCs outside the executable's symbols (shared
    libraries, the vDSO) count as ["(outside the executable)"]. *)
