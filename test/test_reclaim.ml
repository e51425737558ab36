(* Unit tests for the baseline reclamation schemes: hazard-pointer
   protection and scanning, epoch grace periods (including the crash =
   unbounded leak failure mode), drop-the-anchor recovery from stalled
   threads, and reference-counting link/thread counts. *)

open St_sim
open St_mem
open St_htm
open St_reclaim

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let world ?(cores = 4) ?(smt = 1) ?(quantum = 1_000_000) ?(seed = 13) () =
  let sched =
    Sched.create ~topology:(Topology.create ~cores ~smt ()) ~quantum ~seed ()
  in
  let heap = Heap.create ~shadow:(Shadow.create ()) () in
  let tsx = Tsx.create ~sched ~heap () in
  let rt = Guard.make_runtime ~sched ~tsx in
  (sched, heap, rt)

(* ------------------------------------------------------------------ *)
(* Hazard pointers                                                     *)
(* ------------------------------------------------------------------ *)

let test_hazard_blocks_free () =
  let sched, heap, rt = world () in
  let s = Hazard.create ~batch:1 rt in
  let cell = Heap.alloc heap ~tid:0 ~size:1 in
  let node = Heap.alloc heap ~tid:0 ~size:2 in
  Heap.write heap ~tid:0 cell node;
  let still_live = ref false and freed_later = ref false in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard.create_thread s ~tid in
        Hazard.run_op th ~op_id:1 (fun env ->
            let v = Hazard.protected_read env ~slot:0 cell in
            assert (v = node);
            (* Hold the hazard while the other thread retires and scans. *)
            Sched.consume sched 10_000;
            ignore (Hazard.read env (node + 1))))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard.create_thread s ~tid in
        Sched.consume sched 1_000;
        Hazard.run_op th ~op_id:2 (fun env ->
            (* Unlink, then retire: batch=1 scans immediately. *)
            Hazard.write env cell Word.null;
            Hazard.retire env node);
        still_live := Heap.is_allocated heap node;
        (* After the holder's op ends (hazards cleared), scan again. *)
        Sched.consume sched 50_000;
        Hazard.quiesce th;
        freed_later := not (Heap.is_allocated heap node))
  in
  Sched.run sched;
  checkb "hazard kept node alive" true !still_live;
  checkb "freed after release" true !freed_later;
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_hazard_validation_retries_on_change () =
  (* If the source word changes between hazard publication and validation,
     protected_read must retry and return the new stable value. *)
  let sched, heap, rt = world () in
  let s = Hazard.create rt in
  let cell = Heap.alloc heap ~tid:0 ~size:1 in
  let a = Heap.alloc heap ~tid:0 ~size:2 in
  let b = Heap.alloc heap ~tid:0 ~size:2 in
  Heap.write heap ~tid:0 cell a;
  let got = ref 0 in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard.create_thread s ~tid in
        Hazard.run_op th ~op_id:1 (fun env ->
            got := Hazard.protected_read env ~slot:0 cell))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard.create_thread s ~tid in
        (* Interleave with the protect sequence (store+fence window). *)
        Sched.consume sched 10;
        Hazard.run_op th ~op_id:2 (fun env -> Hazard.write env cell b))
  in
  Sched.run sched;
  checkb "stable value returned" true (!got = a || !got = b);
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_hazard_crash_does_not_block_others () =
  (* Unlike epoch, hazard pointers only block the nodes the crashed thread
     had published; everything else keeps being reclaimed. *)
  let sched, _heap, rt = world () in
  let s = Hazard.create ~batch:1 rt in
  let victim_ready = ref false in
  let victim =
    Sched.add_thread sched (fun tid ->
        let th = Hazard.create_thread s ~tid in
        Hazard.run_op th ~op_id:1 (fun _env ->
            victim_ready := true;
            Sched.consume sched 1_000_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard.create_thread s ~tid in
        Sched.consume sched 2_000;
        Sched.crash sched victim;
        (* Retire a private node: no hazard covers it; must be freed even
           with a crashed thread in the system. *)
        Hazard.run_op th ~op_id:2 (fun env ->
            let n = Hazard.alloc env ~size:2 in
            Hazard.retire env n);
        checki "frees continue after crash" 1 (Hazard.stats s).Guard.freed)
  in
  Sched.run sched;
  checkb "victim ran" true !victim_ready

(* ------------------------------------------------------------------ *)
(* Epoch                                                               *)
(* ------------------------------------------------------------------ *)

let test_epoch_defers_until_grace () =
  let sched, heap, rt = world () in
  let s = Epoch.create ~batch:1 rt in
  let node = Heap.alloc heap ~tid:0 ~size:2 in
  let mid_op_alive = ref false in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Epoch.create_thread s ~tid in
        (* A long-running reader operation. *)
        Epoch.run_op th ~op_id:1 (fun _env -> Sched.consume sched 20_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Epoch.create_thread s ~tid in
        Sched.consume sched 1_000;
        Epoch.run_op th ~op_id:2 (fun env -> Epoch.retire env node);
        (* Reclamation happens at op end, after waiting out the reader. *)
        mid_op_alive := not (Heap.is_allocated heap node))
  in
  Sched.run sched;
  checkb "freed after grace period" true !mid_op_alive;
  checkb "reclaimer stalled waiting" true ((Epoch.stats s).Guard.stall_cycles > 5_000);
  checki "freed count" 1 (Epoch.stats s).Guard.freed

let test_epoch_crash_leaks_forever () =
  let sched, _heap, rt = world () in
  let s = Epoch.create ~batch:1 ~patience:30_000 rt in
  let victim =
    Sched.add_thread sched (fun tid ->
        let th = Epoch.create_thread s ~tid in
        Epoch.run_op th ~op_id:1 (fun _env -> Sched.consume sched 1_000_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Epoch.create_thread s ~tid in
        Sched.consume sched 500;
        Sched.crash sched victim;
        Sched.consume sched 1_000;
        for _ = 1 to 5 do
          Epoch.run_op th ~op_id:2 (fun env ->
              let n = Epoch.alloc env ~size:2 in
              Epoch.retire env n)
        done)
  in
  Sched.run sched;
  checki "nothing reclaimed after crash" 0 (Epoch.stats s).Guard.freed;
  checki "all retirements stuck" 5 (Epoch.stats s).Guard.retired

(* ------------------------------------------------------------------ *)
(* Drop-the-anchor                                                     *)
(* ------------------------------------------------------------------ *)

let test_dta_recovers_from_stalled_thread () =
  (* A stalled (crashed) thread blocks epoch forever; DTA consults its
     anchor window instead and keeps reclaiming nodes outside it. *)
  let sched, heap, rt = world () in
  let s = Dta.create ~batch:1 ~patience:5_000 rt in
  let cell = Heap.alloc heap ~tid:0 ~size:1 in
  let held = Heap.alloc heap ~tid:0 ~size:2 in
  Heap.write heap ~tid:0 cell held;
  let victim =
    Sched.add_thread sched (fun tid ->
        let th = Dta.create_thread s ~tid in
        Dta.run_op th ~op_id:1 (fun env ->
            (* Visit [held] so it enters the anchor window, then stall. *)
            ignore (Dta.protected_read env ~slot:0 cell);
            Sched.consume sched 1_000_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Dta.create_thread s ~tid in
        Sched.consume sched 2_000;
        Sched.crash sched victim;
        Sched.consume sched 1_000;
        (* Retire a node outside the victim's window: reclaimable.  Retire
           the held node: protected by the window. *)
        Dta.run_op th ~op_id:2 (fun env ->
            let other = Dta.alloc env ~size:2 in
            Dta.retire env other;
            Heap.write heap ~tid:1 cell Word.null;
            Dta.retire env held);
        checkb "unprotected node freed" true ((Dta.stats s).Guard.freed >= 1);
        checkb "anchored node survives" true (Heap.is_allocated heap held))
  in
  Sched.run sched;
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

(* ------------------------------------------------------------------ *)
(* Hazard-pointer regressions                                          *)
(* ------------------------------------------------------------------ *)

let test_hazard_retry_clears_stale_slot () =
  (* Regression: a protected_read whose validation failed and whose retry
     landed on a non-pointer used to leave the dead pointer published in
     the slot for the rest of the operation, blocking its reclamation.
     The victim's read is interleaved with a writer that nulls the cell
     inside the publish-fence window, so the retry returns Word.null; the
     previously-read node must then be immediately reclaimable. *)
  let sched, heap, rt = world () in
  let s = Hazard.create ~batch:1 rt in
  let cell = Heap.alloc heap ~tid:0 ~size:1 in
  let node = Heap.alloc heap ~tid:0 ~size:2 in
  Heap.write heap ~tid:0 cell node;
  let got = ref (-1) in
  let freed_mid_op = ref false in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard.create_thread s ~tid in
        Hazard.run_op th ~op_id:1 (fun env ->
            got := Hazard.protected_read env ~slot:0 cell;
            (* Stay inside the op: a stale slot would still be published. *)
            Sched.consume sched 20_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard.create_thread s ~tid in
        (* Null the cell inside the victim's publish-fence window so the
           validation re-read fails and the retry sees a non-pointer. *)
        Sched.consume sched 25;
        Heap.write heap ~tid cell Word.null;
        Sched.consume sched 2_000;
        Hazard.run_op th ~op_id:2 (fun env -> Hazard.retire env node);
        freed_mid_op := not (Heap.is_allocated heap node))
  in
  Sched.run sched;
  checki "retry returned the non-pointer" Word.null !got;
  checkb "the failed validation published a hazard" true
    ((Hazard.stats s).Guard.protect_fences >= 1);
  checkb "stale slot cleared: node freed during victim's op" true
    !freed_mid_op

let test_hazard_reregistration_not_scanned_twice () =
  (* Regression: create_thread pushed its tid unconditionally, so a
     re-registered thread was scanned twice (double scan_words, slower
     scans).  Two identical single-thread runs, one registering twice:
     every reclamation statistic must match the once-registered run. *)
  let run_once ~twice =
    let sched, _heap, rt = world () in
    let s = Hazard.create ~batch:1 rt in
    let _ =
      Sched.add_thread sched (fun tid ->
          let th = Hazard.create_thread s ~tid in
          let th = if twice then Hazard.create_thread s ~tid else th in
          Hazard.run_op th ~op_id:1 (fun env ->
              let n = Hazard.alloc env ~size:2 in
              Hazard.retire env n))
    in
    Sched.run sched;
    Hazard.stats s
  in
  let once = run_once ~twice:false and twice = run_once ~twice:true in
  checki "same scan_words" once.Guard.scan_words twice.Guard.scan_words;
  checki "same freed" once.Guard.freed twice.Guard.freed;
  checki "same scans" once.Guard.scans twice.Guard.scans

(* ------------------------------------------------------------------ *)
(* DEBRA                                                               *)
(* ------------------------------------------------------------------ *)

let test_debra_frees_after_epoch_advance () =
  (* A single thread advances the epoch on every operation (the rotating
     check trivially passes), so a node retired at epoch e is freed when
     its bag rotates back around — within three subsequent operations. *)
  let sched, heap, rt = world () in
  let s = Debra.create ~blocked:Wait rt in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Debra.create_thread s ~tid in
        for i = 1 to 10 do
          Debra.run_op th ~op_id:i (fun env ->
              let n = Debra.alloc env ~size:2 in
              Debra.retire env n)
        done;
        checkb "bag rotation freed early retirements" true
          ((Debra.stats s).Guard.freed >= 5);
        Debra.quiesce th)
  in
  Sched.run sched;
  checki "quiesce drained every bag" 10 (Debra.stats s).Guard.freed;
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_debra_crash_stalls_like_epoch () =
  (* DEBRA inherits epoch's failure mode on purpose: a thread that
     crashes while announced inside an operation parks the rotating
     advance check forever, so bags never rotate and nothing frees. *)
  let sched, _heap, rt = world () in
  let s = Debra.create ~blocked:Wait rt in
  let victim =
    Sched.add_thread sched (fun tid ->
        let th = Debra.create_thread s ~tid in
        Debra.run_op th ~op_id:1 (fun _env -> Sched.consume sched 1_000_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Debra.create_thread s ~tid in
        Sched.consume sched 500;
        Sched.crash sched victim;
        Sched.consume sched 1_000;
        for i = 1 to 10 do
          Debra.run_op th ~op_id:(i + 1) (fun env ->
              let n = Debra.alloc env ~size:2 in
              Debra.retire env n)
        done)
  in
  Sched.run sched;
  checki "nothing reclaimed after crash" 0 (Debra.stats s).Guard.freed;
  checki "all retirements stuck in bags" 10 (Debra.stats s).Guard.retired

(* Thread 0 crashes inside an operation; thread 1 retires 10 nodes and
   then quiesces.  Returns (freed, neutralizations) just before and just
   after [quiesce]. *)
let quiesce_past_corpse blocked =
  let sched, _heap, rt = world () in
  let s = Debra.create ~blocked rt in
  let counts () = ((Debra.stats s).Guard.freed, Debra.neutralizations s) in
  let before = ref (-1, -1) in
  let victim =
    Sched.add_thread sched (fun tid ->
        let th = Debra.create_thread s ~tid in
        Debra.run_op th ~op_id:1 (fun _env -> Sched.consume sched 1_000_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Debra.create_thread s ~tid in
        Sched.consume sched 500;
        Sched.crash sched victim;
        Sched.consume sched 1_000;
        for i = 1 to 10 do
          Debra.run_op th ~op_id:(i + 1) (fun env ->
              Debra.retire env (Debra.alloc env ~size:2))
        done;
        before := counts ();
        Debra.quiesce th)
  in
  Sched.run sched;
  (!before, counts ())

let test_debra_quiesce_past_crashed_peer () =
  (* With infinite patience the advance check never neutralizes, so only
     [quiesce]'s peer loop can get past the corpse: [Wait] stops the drain
     there, [Neutralize] neutralizes the corpse on sight and drains. *)
  let (freed0, neut0), (freed, neut) = quiesce_past_corpse Wait in
  checki "wait: nothing freed before quiesce" 0 freed0;
  checki "wait: no neutralization before quiesce" 0 neut0;
  checki "wait: quiesce frees nothing past the corpse" 0 freed;
  checki "wait: quiesce never neutralizes" 0 neut;
  let (freed0, neut0), (freed, neut) =
    quiesce_past_corpse (Neutralize max_int)
  in
  checki "neutralize: nothing freed before quiesce" 0 freed0;
  checki "neutralize: advance check never neutralized" 0 neut0;
  checki "neutralize: quiesce neutralized the corpse once" 1 neut;
  checki "neutralize: quiesce drained every bag" 10 freed

(* ------------------------------------------------------------------ *)
(* DEBRA+                                                              *)
(* ------------------------------------------------------------------ *)

let test_debra_plus_neutralizes_crashed_thread () =
  (* The same corpse that stalls DEBRA forever: after [patience] cycles
     parked on it, the reclaimer delivers a neutralization signal, the
     corpse's announcement is cleared, the epoch advances, and the limbo
     bags drain. *)
  let sched, _heap, rt = world () in
  let s = Debra.create ~blocked:(Neutralize 5_000) rt in
  let victim =
    Sched.add_thread sched (fun tid ->
        let th = Debra.create_thread s ~tid in
        Debra.run_op th ~op_id:1 (fun _env ->
            Sched.consume sched 1_000_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Debra.create_thread s ~tid in
        Sched.consume sched 500;
        Sched.crash sched victim;
        Sched.consume sched 1_000;
        for i = 1 to 30 do
          Debra.run_op th ~op_id:(i + 1) (fun env ->
              let n = Debra.alloc env ~size:2 in
              Debra.retire env n);
          Sched.consume sched 1_000
        done;
        Debra.quiesce th)
  in
  Sched.run sched;
  checkb "the corpse was neutralized" true (Debra.neutralizations s >= 1);
  checkb "reclamation resumed after neutralization" true
    ((Debra.stats s).Guard.freed > 0);
  checki "a crashed victim never recovers" 0 (Debra.recoveries s)

let test_debra_plus_live_victim_restarts () =
  (* A live victim neutralized mid-operation unwinds and re-runs its
     operation body: the first attempt is interrupted, a later attempt
     completes, and the recovery is counted. *)
  let sched, _heap, rt = world () in
  let s = Debra.create ~blocked:(Neutralize 5_000) rt in
  let attempts = ref 0 in
  let completed = ref false in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Debra.create_thread s ~tid in
        Debra.run_op th ~op_id:1 (fun _env ->
            incr attempts;
            (* Only the first attempt stalls; a restart finishes fast. *)
            if !attempts = 1 then Sched.consume sched 1_000_000
            else Sched.consume sched 10);
        completed := true)
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Debra.create_thread s ~tid in
        Sched.consume sched 1_000;
        for i = 1 to 20 do
          Debra.run_op th ~op_id:(i + 1) (fun env ->
              let n = Debra.alloc env ~size:2 in
              Debra.retire env n);
          Sched.consume sched 1_000
        done)
  in
  Sched.run sched;
  checkb "victim was neutralized" true (Debra.neutralizations s >= 1);
  checkb "victim restarted its operation" true (!attempts >= 2);
  checkb "victim completed on the recovery path" true !completed;
  checkb "recovery counted" true (Debra.recoveries s >= 1)

(* ------------------------------------------------------------------ *)
(* Hazard Eras                                                         *)
(* ------------------------------------------------------------------ *)

let test_hazard_eras_interval_blocks_free () =
  (* A reader's published era interval covers a node born before it and
     retired during it: the node is held until the reader's operation
     ends and only then reclaimed. *)
  let sched, heap, rt = world () in
  let s = Hazard_eras.create ~batch:1 ~era_freq:1 rt in
  let cell = Heap.alloc heap ~tid:0 ~size:1 in
  let node = Heap.alloc heap ~tid:0 ~size:2 in
  Heap.write heap ~tid:0 cell node;
  let held_mid_op = ref false in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard_eras.create_thread s ~tid in
        Hazard_eras.run_op th ~op_id:1 (fun env ->
            ignore (Hazard_eras.protected_read env ~slot:0 cell);
            Sched.consume sched 20_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard_eras.create_thread s ~tid in
        Sched.consume sched 1_000;
        Hazard_eras.run_op th ~op_id:2 (fun env ->
            Hazard_eras.write env cell Word.null;
            Hazard_eras.retire env node);
        held_mid_op := Heap.is_allocated heap node;
        (* After the reader's interval is withdrawn, a scan frees it. *)
        Sched.consume sched 50_000;
        Hazard_eras.quiesce th)
  in
  Sched.run sched;
  checkb "reader's interval held the node" true !held_mid_op;
  checkb "freed once the interval was withdrawn" false
    (Heap.is_allocated heap node);
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_hazard_eras_crash_bounds_backlog () =
  (* A crashed reader pins only nodes whose lifetime overlaps its frozen
     era interval.  With the era clock ticking on every retirement,
     everything allocated after the crash has a later birth era and keeps
     being reclaimed — the bounded-backlog contrast with epoch/DEBRA. *)
  let sched, heap, rt = world () in
  let s = Hazard_eras.create ~batch:1 ~era_freq:1 rt in
  let cell = Heap.alloc heap ~tid:0 ~size:1 in
  let node = Heap.alloc heap ~tid:0 ~size:2 in
  Heap.write heap ~tid:0 cell node;
  let victim =
    Sched.add_thread sched (fun tid ->
        let th = Hazard_eras.create_thread s ~tid in
        Hazard_eras.run_op th ~op_id:1 (fun env ->
            ignore (Hazard_eras.protected_read env ~slot:0 cell);
            Sched.consume sched 1_000_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Hazard_eras.create_thread s ~tid in
        Sched.consume sched 2_000;
        Sched.crash sched victim;
        Sched.consume sched 1_000;
        for i = 1 to 6 do
          Hazard_eras.run_op th ~op_id:(i + 1) (fun env ->
              let n = Hazard_eras.alloc env ~size:2 in
              Hazard_eras.retire env n)
        done;
        Hazard_eras.quiesce th)
  in
  Sched.run sched;
  let st = Hazard_eras.stats s in
  checkb "era clock advanced past the corpse" true (Hazard_eras.era s > 1);
  checkb "reclamation continued after the crash" true (st.Guard.freed >= 4);
  checkb "backlog bounded, not drained (corpse still pins its era)" true
    (st.Guard.freed < st.Guard.retired + 1);
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

(* ------------------------------------------------------------------ *)
(* Reference counting                                                  *)
(* ------------------------------------------------------------------ *)

let test_refcount_frees_on_zero () =
  let sched, heap, rt = world () in
  ignore (Heap.allocs heap);
  let s = Refcount.create rt in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Refcount.create_thread s ~tid in
        Refcount.run_op th ~op_id:1 (fun env ->
            let n = Refcount.alloc env ~size:2 in
            (* No links, no holders: retire frees immediately. *)
            Refcount.retire env n;
            checkb "freed at once" false (Heap.is_allocated heap n)))
  in
  Sched.run sched

let test_refcount_link_blocks_free () =
  let sched, heap, rt = world () in
  let s = Refcount.create rt in
  let cell = Heap.alloc heap ~tid:0 ~size:1 in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Refcount.create_thread s ~tid in
        Refcount.run_op th ~op_id:1 (fun env ->
            let n = Refcount.alloc env ~size:2 in
            (* Store a link to n: count = 1. *)
            Refcount.write env cell n;
            Refcount.retire env n;
            checkb "linked node survives retire" true (Heap.is_allocated heap n);
            (* Remove the link: count drops to 0 and the node is freed. *)
            Refcount.write env cell Word.null;
            checkb "freed when last link dropped" false (Heap.is_allocated heap n)))
  in
  Sched.run sched;
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

let test_refcount_holder_blocks_free () =
  let sched, heap, rt = world () in
  let s = Refcount.create rt in
  let cell = Heap.alloc heap ~tid:0 ~size:1 in
  let node = Heap.alloc heap ~tid:0 ~size:2 in
  Heap.write heap ~tid:0 cell node;
  Refcount.note_initial_link s node;
  let observed = ref false in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Refcount.create_thread s ~tid in
        Refcount.run_op th ~op_id:1 (fun env ->
            ignore (Refcount.protected_read env ~slot:0 cell);
            Sched.consume sched 10_000;
            observed := Heap.is_allocated heap node)
        (* op end releases the held reference -> free. *))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Refcount.create_thread s ~tid in
        Sched.consume sched 1_000;
        Refcount.run_op th ~op_id:2 (fun env ->
            Refcount.write env cell Word.null;
            Refcount.retire env node))
  in
  Sched.run sched;
  checkb "held node alive while referenced" true !observed;
  checkb "freed when holder finished" false (Heap.is_allocated heap node);
  checki "no violations" 0 (Shadow.count (Heap.shadow heap))

(* ------------------------------------------------------------------ *)
(* Reclamation-lag accounting                                          *)
(* ------------------------------------------------------------------ *)

let test_lag_measured () =
  (* Epoch frees at the next grace period: the measured retire->free lag
     must cover the reader operation the reclaimer had to wait out. *)
  let sched, heap, rt = world () in
  let s = Epoch.create ~batch:1 rt in
  let node = Heap.alloc heap ~tid:0 ~size:2 in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Epoch.create_thread s ~tid in
        Epoch.run_op th ~op_id:1 (fun _env -> Sched.consume sched 9_000))
  in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Epoch.create_thread s ~tid in
        Sched.consume sched 500;
        Epoch.run_op th ~op_id:2 (fun env -> Epoch.retire env node))
  in
  Sched.run sched;
  let st = Epoch.stats s in
  checki "one free" 1 st.Guard.freed;
  checkb "lag covers the wait" true (st.Guard.lag_max >= 5_000);
  checkb "mean lag positive" true (Guard.mean_lag st > 0.)

let test_lag_zero_for_immediate () =
  let sched, heap, rt = world () in
  ignore (Heap.allocs heap);
  let s = Immediate.create rt in
  let _ =
    Sched.add_thread sched (fun tid ->
        let th = Immediate.create_thread s ~tid in
        Immediate.run_op th ~op_id:1 (fun env ->
            let n = Immediate.alloc env ~size:2 in
            Immediate.retire env n))
  in
  Sched.run sched;
  checkb "immediate lag is tiny" true ((Immediate.stats s).Guard.lag_max < 200)

let () =
  Alcotest.run "st_reclaim"
    [
      ( "hazard",
        [
          Alcotest.test_case "blocks free" `Quick test_hazard_blocks_free;
          Alcotest.test_case "validation retries" `Quick
            test_hazard_validation_retries_on_change;
          Alcotest.test_case "crash tolerant" `Quick
            test_hazard_crash_does_not_block_others;
          Alcotest.test_case "retry clears stale slot" `Quick
            test_hazard_retry_clears_stale_slot;
          Alcotest.test_case "re-registration deduped" `Quick
            test_hazard_reregistration_not_scanned_twice;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "grace period" `Quick test_epoch_defers_until_grace;
          Alcotest.test_case "crash leaks" `Quick test_epoch_crash_leaks_forever;
        ] );
      ( "dta",
        [
          Alcotest.test_case "recovers from stall" `Quick
            test_dta_recovers_from_stalled_thread;
        ] );
      ( "debra",
        [
          Alcotest.test_case "frees after epoch advance" `Quick
            test_debra_frees_after_epoch_advance;
          Alcotest.test_case "crash stalls like epoch" `Quick
            test_debra_crash_stalls_like_epoch;
          Alcotest.test_case "quiesce past crashed peer" `Quick
            test_debra_quiesce_past_crashed_peer;
        ] );
      ( "debra+",
        [
          Alcotest.test_case "neutralizes crashed thread" `Quick
            test_debra_plus_neutralizes_crashed_thread;
          Alcotest.test_case "live victim restarts" `Quick
            test_debra_plus_live_victim_restarts;
        ] );
      ( "hazard-eras",
        [
          Alcotest.test_case "interval blocks free" `Quick
            test_hazard_eras_interval_blocks_free;
          Alcotest.test_case "crash bounds backlog" `Quick
            test_hazard_eras_crash_bounds_backlog;
        ] );
      ( "lag",
        [
          Alcotest.test_case "epoch lag measured" `Quick test_lag_measured;
          Alcotest.test_case "immediate lag ~0" `Quick test_lag_zero_for_immediate;
        ] );
      ( "refcount",
        [
          Alcotest.test_case "frees on zero" `Quick test_refcount_frees_on_zero;
          Alcotest.test_case "link blocks free" `Quick
            test_refcount_link_blocks_free;
          Alcotest.test_case "holder blocks free" `Quick
            test_refcount_holder_blocks_free;
        ] );
    ]
