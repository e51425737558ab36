/* Program-counter sampler behind Pcprof: ITIMER_PROF raises SIGPROF at a
   fixed rate of process CPU time, and the handler records the PC the
   signal interrupted.  The handler runs on an alternate signal stack
   (SA_ONSTACK): OCaml fibers run on small stacks of their own, which a
   signal frame written at the interrupted stack pointer would overflow.
   The signal goes to whichever thread is running, so with two domains
   two handlers can run at once: each claims its slot with an atomic
   add, and each domain's thread has its own alternate stack (the
   runtime installs one when it starts a domain; [pcprof_has_altstack]
   checks it for the calling thread).
   Reading the PC out of the signal context is machine-specific, so the
   sampler exists on Linux x86-64 only; elsewhere [pcprof_supported] is
   false and [pcprof_start] fails. */

#define _GNU_SOURCE
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#if defined(__linux__) && defined(__x86_64__)
#define PCPROF_SUPPORTED 1
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#endif

#if defined(__linux__) && defined(__x86_64__)
#define PCPROF_PLATFORM "linux-x86_64"
#elif defined(__linux__) && defined(__aarch64__)
#define PCPROF_PLATFORM "linux-aarch64"
#elif defined(__APPLE__) && defined(__aarch64__)
#define PCPROF_PLATFORM "macos-arm64"
#elif defined(__APPLE__) && defined(__x86_64__)
#define PCPROF_PLATFORM "macos-x86_64"
#elif defined(_WIN32)
#define PCPROF_PLATFORM "windows"
#else
#define PCPROF_PLATFORM "an unknown platform"
#endif

/* The symbol whose address, read at run time and in [nm]'s listing,
   gives the load offset of a position-independent executable. */
void pcprof_anchor(void) {}

static size_t n_dropped;

value pcprof_platform(value unit)
{
  (void)unit;
  return caml_copy_string(PCPROF_PLATFORM);
}

value pcprof_supported(value unit)
{
  (void)unit;
#ifdef PCPROF_SUPPORTED
  return Val_true;
#else
  return Val_false;
#endif
}

value pcprof_anchor_addr(value unit)
{
  (void)unit;
  return Val_long((intptr_t)&pcprof_anchor);
}

value pcprof_dropped(value unit)
{
  (void)unit;
  return Val_long(__atomic_load_n(&n_dropped, __ATOMIC_RELAXED));
}

#ifdef PCPROF_SUPPORTED

static uintptr_t *samples;
static size_t capacity;
static size_t n_samples; /* slots claimed, possibly past [capacity] */
static struct sigaction old_action;
static stack_t own_stack;
static int own_stack_installed;

static void on_sigprof(int sig, siginfo_t *info, void *ctx)
{
  (void)sig;
  (void)info;
  ucontext_t *uc = ctx;
  size_t i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  if (i < capacity)
    samples[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  else
    __atomic_fetch_add(&n_dropped, 1, __ATOMIC_RELAXED);
}

value pcprof_has_altstack(value unit)
{
  (void)unit;
  stack_t cur;
  return Val_bool(sigaltstack(NULL, &cur) == 0 && !(cur.ss_flags & SS_DISABLE));
}

static void set_timer(long usec)
{
  struct itimerval it;
  it.it_interval.tv_sec = usec / 1000000;
  it.it_interval.tv_usec = usec % 1000000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

value pcprof_start(value v_hz, value v_capacity)
{
  long hz = Long_val(v_hz);
  if (samples != NULL) caml_failwith("Pcprof.start: already sampling");
  capacity = Long_val(v_capacity);
  /* Zeroed: a slot claimed but not yet written when [stop] reads it
     names no function. */
  samples = calloc(capacity, sizeof(uintptr_t));
  if (samples == NULL) caml_raise_out_of_memory();
  n_samples = 0;
  n_dropped = 0;
  /* Use the thread's alternate stack if the runtime set one up, or
     install one. */
  stack_t cur;
  own_stack_installed = 0;
  if (sigaltstack(NULL, &cur) == 0 && (cur.ss_flags & SS_DISABLE)) {
    own_stack.ss_size = 1 << 17;
    own_stack.ss_sp = malloc(own_stack.ss_size);
    own_stack.ss_flags = 0;
    if (own_stack.ss_sp != NULL && sigaltstack(&own_stack, NULL) == 0)
      own_stack_installed = 1;
    else {
      free(own_stack.ss_sp);
      free(samples);
      samples = NULL;
      caml_failwith("Pcprof.start: no alternate signal stack");
    }
  }
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &old_action) != 0) {
    free(samples);
    samples = NULL;
    caml_failwith("Pcprof.start: sigaction");
  }
  set_timer(1000000 / hz);
  return Val_unit;
}

value pcprof_stop(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(result);
  if (samples == NULL) caml_failwith("Pcprof.stop: not sampling");
  set_timer(0);
  sigaction(SIGPROF, &old_action, NULL);
  if (own_stack_installed) {
    stack_t off;
    memset(&off, 0, sizeof off);
    off.ss_flags = SS_DISABLE;
    sigaltstack(&off, NULL);
    free(own_stack.ss_sp);
    own_stack_installed = 0;
  }
  size_t n = __atomic_load_n(&n_samples, __ATOMIC_RELAXED);
  if (n > capacity) n = capacity;
  result = caml_alloc(n, 0);
  for (size_t i = 0; i < n; i++)
    Store_field(result, i, Val_long((intptr_t)samples[i]));
  free(samples);
  samples = NULL;
  CAMLreturn(result);
}

#else

value pcprof_start(value v_hz, value v_capacity)
{
  (void)v_hz;
  (void)v_capacity;
  caml_failwith("Pcprof.start: no program-counter sampling on "
                PCPROF_PLATFORM);
}

value pcprof_stop(value unit)
{
  (void)unit;
  caml_failwith("Pcprof.stop: not sampling");
}

value pcprof_has_altstack(value unit)
{
  (void)unit;
  return Val_false;
}

#endif
