type t = {
  load : int;
  store : int;
  cas : int;
  fence : int;
  fetch_add : int;
  htm_begin : int;
  htm_commit : int;
  htm_abort : int;
  checkpoint : int;
  local_op : int;
  context_switch : int;
  expose_word : int;
  scan_word : int;
  alloc : int;
  free : int;
  coherence_miss : int;
}

let default =
  {
    load = 8;
    store = 6;
    cas = 24;
    fence = 40;
    fetch_add = 24;
    htm_begin = 24;
    htm_commit = 30;
    htm_abort = 100;
    checkpoint = 1;
    local_op = 1;
    context_switch = 3000;
    expose_word = 1;
    scan_word = 1;
    alloc = 40;
    free = 40;
    coherence_miss = 70;
  }
