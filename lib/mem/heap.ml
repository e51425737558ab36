module Vec = St_sim.Vec

(* Backing store layout: every per-address table (payload words, owner map,
   object sizes, birth indices) is a directory of fixed-size power-of-two
   chunks allocated on demand.  Chunks are appended as [brk] advances, so
   coverage is always the contiguous prefix [0, chunks * chunk_words) and
   growth is O(1) per chunk with no copying of existing data — a run holding
   millions of live objects never pays the four full-array doubling copies
   (or the up-to-2x dead capacity) the previous dense arrays did.  The
   directory itself doubles, but it holds one pointer per 2^16 words so that
   copy is negligible. *)
let chunk_shift = 16
let chunk_words = 1 lsl chunk_shift
let chunk_mask = chunk_words - 1

type t = {
  shadow : Shadow.t;
  mutable words : int array array; (* indexed by addr, chunked *)
  mutable owner : int array array; (* addr -> live object base, 0 when dead *)
  mutable obj_size : int array array; (* base addr -> size, valid while live *)
  mutable birth : int array array;
      (* base addr -> 1 + allocation seq while live, 0 when dead — the +1
         keeps 0 free as the "no live object" sentinel for [birth_ix]
         without perturbing the externally visible 0-based sequence *)
  mutable chunks : int; (* chunks allocated in every directory, from 0 *)
  mutable next_birth : int;
  mutable brk : int; (* next never-used address *)
  mutable free_by_class : int Vec.t array;
      (* size-class -> LIFO stack of bases.  Sizes are already rounded to
         multiples of the effective alignment, so class = size / align is an
         exact 1:1 map and lookup is an array index, not a hash + cons. *)
  (* Freed-block quarantine as a preallocated ring (addr, size pairs in two
     flat arrays): the per-free Queue.push allocated a cons + tuple per
     call, which is exactly the kind of minor-heap traffic the reclamation
     hot path must not generate. Capacity is quarantine_max + 1 because a
     push momentarily holds one block more than the retention bound. *)
  q_addr : int array;
  q_size : int array;
  mutable q_head : int; (* index of oldest entry *)
  mutable q_len : int;
  quarantine_max : int;
  align : int;
  mutable allocs : int;
  mutable frees : int;
  mutable live : int;
  mutable peak : int;
  mutable words_live : int;
  mutable lifecycle : Lifecycle.t;
}

let poison = 0x0DEAD

let create ?(initial_words = 1 lsl 16) ?(quarantine = 128) ?(align = 4)
    ~shadow () =
  assert (align >= 1);
  (* [initial_words] pre-sizes the directory (pointer table) only; actual
     chunks appear as the address space is touched. *)
  let hint = max initial_words (Word.heap_base * 2) in
  let dir_cap = max 4 ((hint + chunk_words - 1) / chunk_words) in
  let dir () = Array.make dir_cap [||] in
  let t =
    {
      shadow;
      align;
      words = dir ();
      owner = dir ();
      obj_size = dir ();
      birth = dir ();
      chunks = 0;
      next_birth = 0;
      brk = Word.heap_base;
      free_by_class = Array.init 8 (fun _ -> Vec.create ());
      q_addr = Array.make (quarantine + 1) 0;
      q_size = Array.make (quarantine + 1) 0;
      q_head = 0;
      q_len = 0;
      quarantine_max = quarantine;
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
  t.words.(0) <- Array.make chunk_words 0;
  t.owner.(0) <- Array.make chunk_words 0;
  t.obj_size.(0) <- Array.make chunk_words 0;
  t.birth.(0) <- Array.make chunk_words 0;
  t.chunks <- 1;
  t

let shadow t = t.shadow
let set_lifecycle t lc = t.lifecycle <- lc
let coverage t = t.chunks lsl chunk_shift

let add_chunk t =
  let n = t.chunks in
  if n >= Array.length t.words then begin
    let cap' = 2 * Array.length t.words in
    let grow d =
      let d' = Array.make cap' [||] in
      Array.blit d 0 d' 0 n;
      d'
    in
    t.words <- grow t.words;
    t.owner <- grow t.owner;
    t.obj_size <- grow t.obj_size;
    t.birth <- grow t.birth
  end;
  t.words.(n) <- Array.make chunk_words 0;
  t.owner.(n) <- Array.make chunk_words 0;
  t.obj_size.(n) <- Array.make chunk_words 0;
  t.birth.(n) <- Array.make chunk_words 0;
  t.chunks <- n + 1

let ensure_capacity t needed =
  while needed > coverage t do
    add_chunk t
  done

(* Unchecked chunked loads/stores: valid only below [coverage t].  Callers
   guard with [in_heap] (addr < brk <= coverage) or an explicit coverage
   check, mirroring the bounds-check elision the dense arrays used. *)
let[@inline] tbl_get d addr =
  Array.unsafe_get
    (Array.unsafe_get d (addr lsr chunk_shift))
    (addr land chunk_mask)

let[@inline] tbl_set d addr v =
  Array.unsafe_set
    (Array.unsafe_get d (addr lsr chunk_shift))
    (addr land chunk_mask) v

let in_heap t addr = addr >= Word.heap_base && addr < t.brk

let claim t base size =
  for i = base to base + size - 1 do
    tbl_set t.owner i base;
    tbl_set t.words i 0
  done;
  tbl_set t.obj_size base size;
  tbl_set t.birth base (t.next_birth + 1);
  Lifecycle.on_alloc t.lifecycle ~birth:t.next_birth ~words:size;
  t.next_birth <- t.next_birth + 1;
  t.allocs <- t.allocs + 1;
  t.live <- t.live + 1;
  if t.live > t.peak then t.peak <- t.live;
  t.words_live <- t.words_live + size

(* Sizes are rounded up to the arena chunk granularity (cache-line sized by
   default), like any allocator that wants to avoid false sharing between
   objects handed to different threads.  Bases are always at least 2-aligned
   so the low pointer bit stays free for list deletion marks.  Not
   [max 2 t.align]: [Stdlib.max] is polymorphic, a [caml_greaterequal] C
   call, and this runs twice per alloc. *)
let effective_align t = if t.align >= 2 then t.align else 2

let chunk_size t size =
  let a = effective_align t in
  (size + a - 1) / a * a

let free_list t size =
  let cls = size / effective_align t in
  let n = Array.length t.free_by_class in
  if cls >= n then begin
    let cap = ref n in
    while cls >= !cap do
      cap := !cap * 2
    done;
    t.free_by_class <-
      Array.init !cap (fun i ->
          if i < n then t.free_by_class.(i) else Vec.create ())
  end;
  Array.unsafe_get t.free_by_class cls

let alloc t ~tid:_ ~size =
  assert (size >= 1);
  let size = chunk_size t size in
  let fl = free_list t size in
  let base =
    let n = Vec.length fl in
    if n > 0 then begin
      let base = Vec.get fl (n - 1) in
      Vec.truncate fl (n - 1);
      base
    end
    else begin
      let a = effective_align t in
      let base = (t.brk + a - 1) / a * a in
      ensure_capacity t (base + size + 1);
      t.brk <- base + size;
      base
    end
  in
  claim t base size;
  base

let is_allocated t addr = in_heap t addr && tbl_get t.owner addr = addr

let size_of t addr =
  if is_allocated t addr then Some (tbl_get t.obj_size addr) else None

let owner_of t v = if in_heap t v then tbl_get t.owner v else 0

let base_of t v =
  let b = owner_of t v in
  if b <> 0 then Some b else None

let birth_ix t addr = if is_allocated t addr then tbl_get t.birth addr else 0

let free t ~tid addr =
  if not (in_heap t addr) then Shadow.record t.shadow Bad_free ~addr ~tid
  else if tbl_get t.owner addr <> addr then
    (* Either an interior pointer or an already-freed base. *)
    Shadow.record t.shadow
      (if tbl_get t.obj_size addr > 0 && tbl_get t.owner addr = 0 then
         Double_free
       else Bad_free)
      ~addr ~tid
  else begin
    let size = tbl_get t.obj_size addr in
    Lifecycle.on_free t.lifecycle ~birth:(tbl_get t.birth addr - 1) ~words:size;
    for i = addr to addr + size - 1 do
      tbl_set t.owner i 0;
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
    if t.q_len > t.quarantine_max then begin
      let old_addr = t.q_addr.(t.q_head) in
      let old_size = t.q_size.(t.q_head) in
      t.q_head <- (t.q_head + 1) mod cap;
      t.q_len <- t.q_len - 1;
      Vec.push (free_list t old_size) old_addr
    end
  end

(* The success branches skip the bounds checks: [in_heap] established
   [heap_base <= addr < brk], and the chunks cover [brk] ([ensure_capacity]
   appends them before [brk] moves).  These two functions sit under every
   simulated memory access. *)
let read t ~tid addr =
  if in_heap t addr && tbl_get t.owner addr <> 0 then tbl_get t.words addr
  else begin
    Shadow.record t.shadow Read_after_free ~addr ~tid;
    if addr >= 0 && addr < coverage t then tbl_get t.words addr else poison
  end

let write t ~tid addr v =
  if in_heap t addr && tbl_get t.owner addr <> 0 then tbl_set t.words addr v
  else begin
    Shadow.record t.shadow Write_after_free ~addr ~tid;
    if addr >= 0 && addr < coverage t then tbl_set t.words addr v
  end

let peek t addr =
  if addr >= 0 && addr < coverage t then tbl_get t.words addr else poison

let allocs t = t.allocs
let frees t = t.frees
let quarantined t = t.q_len
let live_objects t = t.live
let peak_live t = t.peak
let words_in_use t = t.words_live
let touched_chunks t = t.chunks
let resident_words t = 4 * coverage t
