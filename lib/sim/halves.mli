(** An index range in two halves, the upper one on a helper domain.

    For host-side passes over a quiescent structure whose parts are
    independent (the hash table's census over buckets, its build's sorts
    over partitions): [sum] returns [f lo mid + f mid hi], the lower half
    on the calling domain and the upper half on one helper domain spawned
    for the call and joined before it returns.  The split is fixed at the
    middle, not work-stealing, so what each domain allocates is the same
    on every call.

    The same [f] runs over the whole range on the calling domain, and no
    domain is spawned, when the work is below {!threshold}, when
    [Domain.recommended_domain_count ()] is 1 (one CPU, or a process
    pinned to one), when the caller runs inside {!as_worker} (a domain
    pool already using the cores), or when the spawn is refused. *)

val threshold : int
(** [2^17]: a call with less [work] than this runs as one range, where a
    spawn (a thread, a minor heap and a join) would cost about as much
    as the half it saves. *)

val sum :
  work:int -> n:int -> scratch:(int -> int -> 's) -> ('s -> int -> int -> int) -> int
(** [sum ~work ~n ~scratch f] is [f (scratch 0 mid) 0 mid + f (scratch
    mid n) mid n] with [mid = n / 2], the second call on a helper domain;
    or [f (scratch 0 n) 0 n] on the calling domain (see above).  [work]
    is the size that is compared with {!threshold}: the range's own
    length, or what the range stands for (keys, when [n] counts
    partitions of them).

    Both halves' scratch is made on the calling domain before the spawn,
    so large buffers come from its heap.  The halves must touch disjoint
    mutable state; the join orders the helper's writes before [sum]
    returns.  If a half raises, the helper is joined before the exception
    leaves: the lower half's exception wins, then the upper half's.  The
    helper reaches [f] and its scratch through a cell that is emptied at
    the join, so nothing they hold outlives the call. *)

val as_worker : (unit -> 'a) -> 'a
(** [as_worker body] runs [body] as one worker of a domain pool:
    {!sum} inside it runs one range. *)
