(** Log-bucketed latency histogram (virtual cycles per operation).

    Beyond the paper's throughput figures, tail latency separates the
    schemes sharply: epoch's reclaim waits put multi-quantum spikes in the
    tail, hazard pointers inflate the median, and StackTrack sits between —
    a distribution view the harness reports alongside each sweep. *)

type t = {
  buckets : int array; (* bucket i counts values in [2^(i/2)] steps *)
  mutable count : int;
  mutable sum : int;
  mutable max_v : int;
}

let n_buckets = 96

let create () =
  { buckets = Array.make n_buckets 0; count = 0; sum = 0; max_v = 0 }

(* Half-power-of-two buckets: bucket 0 holds v <= 1, then bucket
   2*floor(log2 v) + halfbit - 1, giving ~41% resolution across 2^48.
   The -1 keeps every index reachable: without it bucket 1 (which would
   need lg = 0 with a half bit) can never be produced, and the unused
   index forces two buckets to share a lower bound. *)
let bucket_of v =
  if v <= 1 then 0
  else begin
    let lg = ref 0 and x = ref v in
    while !x > 1 do
      incr lg;
      x := !x lsr 1
    done;
    (* lg = floor(log2 v) >= 1; refine with the half step. *)
    let half = if v land (1 lsl (!lg - 1)) <> 0 then 1 else 0 in
    min (n_buckets - 1) ((2 * !lg) + half - 1)
  end

(* Lower bounds 0, 2, 3, 4, 6, 8, 12, ... — strictly increasing, and
   [bucket_low (bucket_of v) <= v < bucket_low (bucket_of v + 1)] for
   every non-saturating bucket. *)
let bucket_low i =
  if i <= 0 then 0
  else begin
    let j = i + 1 in
    let lg = j / 2 in
    let base = 1 lsl lg in
    if j land 1 = 0 then base else base + (base lsr 1)
  end

let record t v =
  let v = max 0 v in
  t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let max_value t = t.max_v
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

(* Percentile as the lower bound of the bucket containing the rank. *)
let percentile t p =
  assert (p >= 0. && p <= 100.);
  if t.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
    let rank = max 1 (min t.count rank) in
    let acc = ref 0 and result = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + t.buckets.(i);
         if !acc >= rank then begin
           result := bucket_low i;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

(* Nonzero buckets as (lower bound, count), ascending — the sparse form
   the JSON export and the analyzer's distribution diff consume. *)
let nonzero_buckets t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (bucket_low i, t.buckets.(i)) :: !acc
  done;
  !acc

let merge ts =
  let acc = create () in
  List.iter
    (fun t ->
      Array.iteri (fun i c -> acc.buckets.(i) <- acc.buckets.(i) + c) t.buckets;
      acc.count <- acc.count + t.count;
      acc.sum <- acc.sum + t.sum;
      if t.max_v > acc.max_v then acc.max_v <- t.max_v)
    ts;
  acc
