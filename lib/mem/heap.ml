module Ivec = St_sim.Ivec

(* Backing store layout: every per-address table (payload words, owner map,
   object sizes, birth indices) is a directory of fixed-size power-of-two
   chunks allocated on demand.  Chunks are appended as [brk] advances, so
   coverage is always the contiguous prefix [0, chunks * chunk_words) and
   growth is O(1) per chunk with no copying of existing data — a run holding
   millions of live objects never pays the four full-array doubling copies
   (or the up-to-2x dead capacity) the previous dense arrays did.  The
   directory itself doubles, but it holds one pointer per 2^16 words so that
   copy is negligible.

   Only the payload is per word.  Objects are granule-aligned and
   granule-sized (the granule is the effective alignment, a power of two),
   so owner, size and birth are constant over a granule and their tables
   hold one entry per granule: [chunk_words lsr gshift] entries per chunk,
   covering the same addresses as the payload chunk of the same index.

   A chunk is a [Bytes.t] of native-endian 64-bit slots behind the
   monomorphic [get]/[set] below, so an access compiles to a plain load or
   store and a shift, with no float-array tag test and no [caml_modify].
   Unlike an [int array], a new chunk is one [memset] rather than
   [caml_make_vect]'s fill loop, and the major GC never scans the tables
   (millions of words on a 10^6-object heap).  An OCaml int survives the
   round trip through [Int64] exactly. *)
let chunk_shift = 16
let chunk_words = 1 lsl chunk_shift
let chunk_mask = chunk_words - 1

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Slot [i] of a chunk, unchecked: valid only for [0 <= i < slots]. *)
let[@inline] get b i = Int64.to_int (get64u b (i lsl 3))
let[@inline] set b i v = set64u b (i lsl 3) (Int64.of_int v)
let make_chunk slots = Bytes.make (slots lsl 3) '\000'

type t = {
  shadow : Shadow.t;
  mutable words : Bytes.t array; (* indexed by addr, chunked *)
  mutable owner : Bytes.t array; (* granule -> live object base, 0 when dead *)
  mutable obj_size : Bytes.t array; (* base granule -> size, valid while live *)
  mutable birth : Bytes.t array;
      (* base granule -> 1 + allocation seq while live, 0 when dead — the
         +1 keeps 0 free as the "no live object" sentinel for [birth_ix]
         without perturbing the externally visible 0-based sequence *)
  mutable chunks : int; (* chunks allocated in every directory, from 0 *)
  mutable next_birth : int;
  mutable brk : int; (* next never-used address *)
  mutable stray_end : int;
      (* one past the highest word a violating [write] stored at or past
         [brk]: from here on, words past the break are as [add_chunk] made
         them, zero *)
  mutable free_by_class : Ivec.t array;
      (* size-class -> LIFO stack of bases.  Sizes are already rounded to
         multiples of the granule, so class = size / granule is an exact
         1:1 map and lookup is an array index, not a hash + cons. *)
  (* Freed-block quarantine as a preallocated ring (addr, size pairs in two
     flat arrays): the per-free Queue.push allocated a cons + tuple per
     call, which is exactly the kind of minor-heap traffic the reclamation
     hot path must not generate. Capacity is the retention bound + 1
     because a push momentarily holds one block more: a full ring releases
     its oldest block. *)
  q_addr : int array;
  q_size : int array;
  mutable q_head : int; (* index of oldest entry *)
  mutable q_len : int;
  gshift : int; (* log2 of the granule *)
  mutable allocs : int;
  mutable frees : int;
  mutable live : int;
  mutable peak : int;
  mutable words_live : int;
  mutable lifecycle : Lifecycle.t;
}

let poison = 0x0DEAD

let add_chunk t =
  let n = t.chunks in
  if n >= Array.length t.words then begin
    let cap' = 2 * Array.length t.words in
    let grow d =
      let d' = Array.make cap' Bytes.empty in
      Array.blit d 0 d' 0 n;
      d'
    in
    t.words <- grow t.words;
    t.owner <- grow t.owner;
    t.obj_size <- grow t.obj_size;
    t.birth <- grow t.birth
  end;
  let granules = chunk_words lsr t.gshift in
  t.words.(n) <- make_chunk chunk_words;
  t.owner.(n) <- make_chunk granules;
  t.obj_size.(n) <- make_chunk granules;
  t.birth.(n) <- make_chunk granules;
  t.chunks <- n + 1

let create ?(initial_words = 1 lsl 16) ?(quarantine = 128) ?(align = 4)
    ~shadow () =
  if align < 1 || align > chunk_words || align land (align - 1) <> 0 then
    invalid_arg "Heap.create: align must be a power of two, at most chunk_words";
  (* The granule: sizes and bases are rounded to it.  Bases are always at
     least 2-aligned so the low pointer bit stays free for list deletion
     marks. *)
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  let gshift = if align >= 2 then log2 align else 1 in
  (* [initial_words] pre-sizes the directory (pointer table) only; actual
     chunks appear as the address space is touched. *)
  let hint = max initial_words (Word.heap_base * 2) in
  let dir_cap = max 4 ((hint + chunk_words - 1) / chunk_words) in
  let dir () = Array.make dir_cap Bytes.empty in
  let t =
    {
      shadow;
      gshift;
      words = dir ();
      owner = dir ();
      obj_size = dir ();
      birth = dir ();
      chunks = 0;
      next_birth = 0;
      brk = Word.heap_base;
      stray_end = 0;
      free_by_class = Array.init 8 (fun _ -> Ivec.create ());
      q_addr = Array.make (quarantine + 1) 0;
      q_size = Array.make (quarantine + 1) 0;
      q_head = 0;
      q_len = 0;
      allocs = 0;
      frees = 0;
      live = 0;
      peak = 0;
      words_live = 0;
      lifecycle = Lifecycle.disabled;
    }
  in
  (* Chunk 0 covers [0, heap_base] so the tables back [brk] from the
     start. *)
  add_chunk t;
  t

let shadow t = t.shadow
let set_lifecycle t lc = t.lifecycle <- lc
let coverage t = t.chunks lsl chunk_shift

let ensure_capacity t needed =
  while needed > coverage t do
    add_chunk t
  done

(* Unchecked chunked loads/stores: valid only below [coverage t].  Callers
   guard with [in_heap] (addr < brk <= coverage) or an explicit coverage
   check, mirroring the bounds-check elision the dense arrays used.  The
   [tbl_*] pair indexes the per-word payload, the [gran_*] pair the
   per-granule tables, by the granule holding [addr]. *)
let[@inline] tbl_get d addr =
  get (Array.unsafe_get d (addr lsr chunk_shift)) (addr land chunk_mask)

let[@inline] tbl_set d addr v =
  set (Array.unsafe_get d (addr lsr chunk_shift)) (addr land chunk_mask) v

let[@inline] gran_get t d addr =
  get
    (Array.unsafe_get d (addr lsr chunk_shift))
    ((addr land chunk_mask) lsr t.gshift)

let[@inline] gran_set t d addr v =
  set
    (Array.unsafe_get d (addr lsr chunk_shift))
    ((addr land chunk_mask) lsr t.gshift)
    v

let in_heap t addr = addr >= Word.heap_base && addr < t.brk

(* Stamp [count] objects of [size] words, the first at [base] and each at
   the end of the one before: zero the words below [dirty_end] with one
   fill per chunk segment, then walk the segment's granules, pointing each
   at its object's base and stamping the size and birth in each base
   granule.  Each table's directory is loaded once per chunk, not once per
   word or object.  Bases and sizes are granule multiples and chunks are
   granule aligned, so a segment covers whole granules.  [alloc] is a run
   of one. *)
let claim t ~dirty_end base size count =
  let gshift = t.gshift and granules = size lsr t.gshift in
  let stop = base + (size * count) in
  let a = ref base and obj = ref base and left = ref granules in
  let birth = ref t.next_birth in
  while !a < stop do
    let c = !a lsr chunk_shift and lo = !a land chunk_mask in
    let n = Int.min (stop - !a) (chunk_words - lo) in
    let dirty = Int.min n (dirty_end - !a) in
    if dirty > 0 then
      Bytes.unsafe_fill (Array.unsafe_get t.words c) (lo lsl 3) (dirty lsl 3)
        '\000';
    let owner = Array.unsafe_get t.owner c
    and sizes = Array.unsafe_get t.obj_size c
    and births = Array.unsafe_get t.birth c in
    for g = lo lsr gshift to ((lo + n) lsr gshift) - 1 do
      if !left = granules then begin
        set sizes g size;
        set births g (!birth + 1);
        Lifecycle.on_alloc t.lifecycle ~birth:!birth ~words:size;
        incr birth
      end;
      set owner g !obj;
      decr left;
      if !left = 0 then begin
        obj := !obj + size;
        left := granules
      end
    done;
    a := !a + n
  done;
  t.next_birth <- !birth;
  t.allocs <- t.allocs + count;
  t.live <- t.live + count;
  if t.live > t.peak then t.peak <- t.live;
  t.words_live <- t.words_live + (size * count)

(* Sizes are rounded up to the granule (cache-line sized by default), like
   any allocator that wants to avoid false sharing between objects handed
   to different threads. *)
let round_up t n =
  let m = (1 lsl t.gshift) - 1 in
  (n + m) land lnot m

(* The free list of size class [cls], growing the class table to hold it.
   Only [free] grows the table: a class past its end has an empty list. *)
let grow_free_lists t cls =
  let n = Array.length t.free_by_class in
  let cap = ref n in
  while cls >= !cap do
    cap := !cap * 2
  done;
  t.free_by_class <-
    Array.init !cap (fun i ->
        if i < n then t.free_by_class.(i) else Ivec.create ());
  t.free_by_class.(cls)

let[@inline] free_list t size =
  let cls = size lsr t.gshift in
  if cls < Array.length t.free_by_class then
    Array.unsafe_get t.free_by_class cls
  else grow_free_lists t cls

(* Blocks ready for reuse in the free list of objects of [size] words. *)
let[@inline] free_blocks t size =
  let cls = size lsr t.gshift in
  if cls < Array.length t.free_by_class then
    Ivec.length (Array.unsafe_get t.free_by_class cls)
  else 0

(* [count] objects of [size] words (a granule multiple) from the break.
   Only the words a stray write reached need zeroing there. *)
let from_break t size count =
  let base = round_up t t.brk in
  let stop = base + (size * count) in
  ensure_capacity t (stop + 1);
  t.brk <- stop;
  claim t ~dirty_end:t.stray_end base size count;
  base

let alloc t ~tid:_ ~size =
  if size < 1 then
    invalid_arg (Printf.sprintf "Heap.alloc: size = %d, need at least 1" size);
  let size = round_up t size in
  let n = free_blocks t size in
  if n > 0 then begin
    let fl = Array.unsafe_get t.free_by_class (size lsr t.gshift) in
    let base = Ivec.get fl (n - 1) in
    Ivec.truncate fl (n - 1);
    claim t ~dirty_end:max_int base size 1;
    base
  end
  else from_break t size 1

let alloc_run t ~tid:_ ~size ~count =
  if size < 1 || count < 0 then
    invalid_arg
      (Printf.sprintf
         "Heap.alloc_run: size = %d, count = %d, need a size of at least 1 \
          and a count of at least 0"
         size count);
  let size = round_up t size in
  let ready = free_blocks t size in
  if ready > 0 then
    invalid_arg
      (Printf.sprintf
         "Heap.alloc_run: %d freed blocks of %d words are ready for reuse"
         ready size);
  if count = 0 then Word.null else from_break t size count

let is_allocated t addr = in_heap t addr && gran_get t t.owner addr = addr

let size_of t addr =
  if is_allocated t addr then gran_get t t.obj_size addr else 0

let owner_of t v = if in_heap t v then gran_get t t.owner v else 0

let base_of t v =
  let b = owner_of t v in
  if b <> 0 then Some b else None

let birth_ix t addr =
  if is_allocated t addr then gran_get t t.birth addr else 0

let free t ~tid addr =
  if not (in_heap t addr) then Shadow.record t.shadow Bad_free ~addr ~tid
  else if gran_get t t.owner addr <> addr then
    (* Either an interior pointer or an already-freed base.  Only a
       granule-aligned address can ever have been a base. *)
    Shadow.record t.shadow
      (if
         addr land ((1 lsl t.gshift) - 1) = 0
         && gran_get t t.obj_size addr > 0
         && gran_get t t.owner addr = 0
       then Double_free
       else Bad_free)
      ~addr ~tid
  else begin
    let size = gran_get t t.obj_size addr in
    Lifecycle.on_free t.lifecycle
      ~birth:(gran_get t t.birth addr - 1)
      ~words:size;
    for g = 0 to (size lsr t.gshift) - 1 do
      gran_set t t.owner (addr + (g lsl t.gshift)) 0
    done;
    for i = addr to addr + size - 1 do
      tbl_set t.words i poison
    done;
    t.frees <- t.frees + 1;
    t.live <- t.live - 1;
    t.words_live <- t.words_live - size;
    (* Freed blocks sit in a bounded quarantine before becoming allocatable
       again, so that a use-after-free by a stale reader hits a dead word
       (and is reported) instead of silently aliasing a fresh allocation —
       same idea as ASan's quarantine. *)
    let cap = Array.length t.q_addr in
    let slot = (t.q_head + t.q_len) mod cap in
    t.q_addr.(slot) <- addr;
    t.q_size.(slot) <- size;
    t.q_len <- t.q_len + 1;
    if t.q_len = cap then begin
      let old_addr = t.q_addr.(t.q_head) in
      let old_size = t.q_size.(t.q_head) in
      t.q_head <- (t.q_head + 1) mod cap;
      t.q_len <- t.q_len - 1;
      Ivec.push (free_list t old_size) old_addr
    end
  end

(* The success branches skip the bounds checks: [in_heap] established
   [heap_base <= addr < brk], and the chunks cover [brk] ([ensure_capacity]
   appends them before [brk] moves).  These two functions sit under every
   simulated memory access. *)
let read t ~tid addr =
  if in_heap t addr && gran_get t t.owner addr <> 0 then tbl_get t.words addr
  else begin
    Shadow.record t.shadow Read_after_free ~addr ~tid;
    if addr >= 0 && addr < coverage t then tbl_get t.words addr else poison
  end

let write t ~tid addr v =
  if in_heap t addr && gran_get t t.owner addr <> 0 then tbl_set t.words addr v
  else begin
    Shadow.record t.shadow Write_after_free ~addr ~tid;
    if addr >= 0 && addr < coverage t then begin
      tbl_set t.words addr v;
      if addr >= t.brk then t.stray_end <- Int.max t.stray_end (addr + 1)
    end
  end

let peek t addr =
  if addr >= 0 && addr < coverage t then tbl_get t.words addr else poison

(* [peek], then [Word.unmark], with the directory and coverage in hand. *)
let[@inline] link words cov addr =
  Word.unmark
    (if addr >= 0 && addr < cov then
       get (Array.unsafe_get words (addr lsr chunk_shift)) (addr land chunk_mask)
     else poison)

(* The walk keeps [lanes] chains going at once, one step per lane per
   round.  The steps of a round are independent loads, so their cache
   misses overlap instead of queueing one chain at a time.  A lane whose
   chain has ended takes the next root's.  Nothing in the loop reloads
   the heap record: the payload directory and coverage are locals. *)
let lanes = 16

let count_chains t ~roots ~first ~n ~next_off =
  let words = t.words and cov = coverage t in
  let lane = Array.make lanes Word.null in
  let r = ref first and stop = first + n in
  let count = ref 0 and busy = ref true in
  while !busy do
    busy := false;
    for l = 0 to lanes - 1 do
      let a = Array.unsafe_get lane l in
      if a <> Word.null then begin
        incr count;
        Array.unsafe_set lane l (link words cov (a + next_off));
        busy := true
      end
      else if !r < stop then begin
        let head = link words cov (roots + !r) in
        if head <> Word.null then begin
          incr count;
          Array.unsafe_set lane l (link words cov (head + next_off))
        end;
        incr r;
        busy := true
      end
    done
  done;
  !count

let allocs t = t.allocs
let frees t = t.frees
let quarantined t = t.q_len
let live_objects t = t.live
let peak_live t = t.peak
let words_in_use t = t.words_live
let touched_chunks t = t.chunks
let resident_words t = coverage t + (3 * (coverage t lsr t.gshift))
