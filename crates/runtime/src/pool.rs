//! The rank pool: one process-wide list of idle rank threads that worlds
//! lease instead of spawning an OS thread per rank per world.
//!
//! A rank's OS thread is only a stack for its state machine (the scheduler
//! decides when it runs), so the stack need not be born with the world. A
//! world leases p idle threads, spawns only the shortfall, hands each one a
//! rank body and waits on a completion latch; a finished thread returns to
//! the idle list and parks on its own condvar until the next lease.
//!
//! - **Grow and keep.** The pool grows to the peak number of ranks running
//!   at once in the process and keeps those threads; nothing sizes or
//!   shrinks it. `WorldSpec::workers` is the run-gate width, not a thread
//!   count.
//! - **All or nothing.** Every thread of a world is leased before any rank
//!   body is handed off. A failed grow (thread limit, memory) puts the
//!   threads already leased back on the idle list and panics before any
//!   rank starts, so no rank can wait on a peer that never exists.
//! - **Process-wide.** Sessions, crash re-runs, plain `run` and the tests
//!   all reach this pool through `world::run_crashable`, the one runner.
//!
//! Thread-local state outlives a lease. The rope copy probe, the
//! workspace's only thread-local, is reset at rank start by the runner.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One rank body. It may borrow the caller's stack (the world, the rank
/// closure, the result slot): [`run_all`] does not return until it is
/// done.
pub(crate) type Body<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A body's panic payload, as `JoinHandle::join` would have returned it.
pub(crate) type Payload = Box<dyn Any + Send>;

/// Stack size of every pooled thread.
const STACK_BYTES: usize = 1 << 20;

/// The process-wide pool every world leases from.
static GLOBAL: Pool = Pool::new();

/// Runs every body on its own pooled thread and waits until all have
/// finished. Returns each body's panic, in body order.
pub(crate) fn run_all(bodies: Vec<Body<'_>>) -> Vec<Option<Payload>> {
    GLOBAL.run(bodies, spawn_seat)
}

/// One pooled thread's hand-off cell: the runner drops a task in, the
/// thread takes it out.
struct Seat {
    task: Mutex<Option<Task>>,
    ready: Condvar,
}

/// A leased body and where to report its end.
struct Task {
    body: Body<'static>,
    latch: Arc<Latch>,
    index: usize,
}

/// Counts a world's bodies down to zero, keeping each one's panic.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    pending: usize,
    panics: Vec<Option<Payload>>,
}

impl Latch {
    fn finish(&self, index: usize, panic: Option<Payload>) {
        let mut st = self.state.lock();
        st.panics[index] = panic;
        st.pending -= 1;
        if st.pending == 0 {
            self.done.notify_one();
        }
    }
}

/// A list of idle threads. One static instance serves the process; tests
/// build private ones.
struct Pool {
    idle: Mutex<Vec<Arc<Seat>>>,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
        }
    }

    /// Takes `n` threads: idle ones first, then `spawn` for the shortfall.
    /// If `spawn` fails, every thread taken so far goes back on the idle
    /// list before the panic, and no body has been handed off.
    fn lease(
        &'static self,
        n: usize,
        mut spawn: impl FnMut(&'static Pool) -> io::Result<Arc<Seat>>,
    ) -> Vec<Arc<Seat>> {
        let mut seats = {
            let mut idle = self.idle.lock();
            let keep = idle.len().saturating_sub(n);
            idle.split_off(keep)
        };
        while seats.len() < n {
            match spawn(self) {
                Ok(seat) => seats.push(seat),
                Err(e) => {
                    self.idle.lock().append(&mut seats);
                    panic!("failed to spawn rank thread: {e}");
                }
            }
        }
        seats
    }

    fn run(
        &'static self,
        bodies: Vec<Body<'_>>,
        spawn: impl FnMut(&'static Pool) -> io::Result<Arc<Seat>>,
    ) -> Vec<Option<Payload>> {
        let n = bodies.len();
        let seats = self.lease(n, spawn);
        let latch = Arc::new(Latch {
            state: Mutex::new(LatchState {
                pending: n,
                panics: (0..n).map(|_| None).collect(),
            }),
            done: Condvar::new(),
        });
        // From the first hand-off to the end of the wait nothing can panic:
        // the locks do not poison, and every allocation happened above.
        for (index, (seat, body)) in seats.iter().zip(bodies).enumerate() {
            // SAFETY: the body's borrows must outlive its execution. This
            // function cannot return or unwind before the latch below has
            // counted every handed-off body finished, and a seat reports to
            // the latch only after the body has returned or unwound — either
            // way consuming and dropping it. So the caller's borrows outlive
            // every use, although the type no longer says so.
            let body = unsafe { std::mem::transmute::<Body<'_>, Body<'static>>(body) };
            *seat.task.lock() = Some(Task {
                body,
                latch: Arc::clone(&latch),
                index,
            });
            seat.ready.notify_one();
        }
        let mut st = latch.state.lock();
        while st.pending > 0 {
            latch.done.wait(&mut st);
        }
        std::mem::take(&mut st.panics)
    }
}

/// Grows `pool` by one thread, parked until its first task.
fn spawn_seat(pool: &'static Pool) -> io::Result<Arc<Seat>> {
    let seat = Arc::new(Seat {
        task: Mutex::new(None),
        ready: Condvar::new(),
    });
    let mine = Arc::clone(&seat);
    std::thread::Builder::new()
        .name("eag-rank".into())
        .stack_size(STACK_BYTES)
        .spawn(move || serve(pool, &mine))?;
    Ok(seat)
}

/// A pooled thread's life: wait for a task, run it, go back on the idle
/// list, report.
fn serve(pool: &Pool, seat: &Arc<Seat>) {
    loop {
        let Task { body, latch, index } = {
            let mut task = seat.task.lock();
            loop {
                if let Some(t) = task.take() {
                    break t;
                }
                seat.ready.wait(&mut task);
            }
        };
        let panic = catch_unwind(AssertUnwindSafe(body)).err();
        // Idle before the latch lets the runner return, so the caller's
        // next world finds this thread instead of spawning another.
        pool.idle.lock().push(Arc::clone(seat));
        latch.finish(index, panic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    fn never_spawn(_: &'static Pool) -> io::Result<Arc<Seat>> {
        panic!("the pool must not grow here");
    }

    #[test]
    fn bodies_borrow_the_callers_stack() {
        static POOL: Pool = Pool::new();
        let input = [3u64, 5, 7, 11];
        let mut out = [0u64; 4];
        let bodies: Vec<Body> = out
            .iter_mut()
            .zip(&input)
            .map(|(slot, x)| Box::new(move || *slot = x * x) as Body)
            .collect();
        let panics = POOL.run(bodies, spawn_seat);
        assert!(panics.iter().all(Option::is_none));
        assert_eq!(out, [9, 25, 49, 121]);
    }

    #[test]
    fn panics_come_back_per_body_and_threads_survive_them() {
        static POOL: Pool = Pool::new();
        let ran = AtomicUsize::new(0);
        let body = |i: usize| -> Body {
            let ran = &ran;
            Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
                match i {
                    1 => panic!("boom"),
                    3 => std::panic::panic_any(7u32),
                    _ => {}
                }
            })
        };
        let panics = POOL.run((0..4).map(body).collect(), spawn_seat);
        assert_eq!(ran.load(Ordering::SeqCst), 4);
        assert!(panics[0].is_none() && panics[2].is_none());
        assert_eq!(panics[1].as_ref().unwrap().downcast_ref(), Some(&"boom"));
        assert_eq!(panics[3].as_ref().unwrap().downcast_ref(), Some(&7u32));
        // The same four threads take the next lease.
        let panics = POOL.run((4..8).map(body).collect(), never_spawn);
        assert!(panics.iter().all(Option::is_none));
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn threads_are_reused_across_leases() {
        static POOL: Pool = Pool::new();
        let run = |spawn: fn(&'static Pool) -> io::Result<Arc<Seat>>| {
            let ids: Vec<Mutex<Option<ThreadId>>> = (0..3).map(|_| Mutex::new(None)).collect();
            let bodies: Vec<Body> = ids
                .iter()
                .map(|id| Box::new(move || *id.lock() = Some(std::thread::current().id())) as Body)
                .collect();
            POOL.run(bodies, spawn);
            ids.into_iter()
                .map(|id| id.into_inner().unwrap())
                .collect::<HashSet<_>>()
        };
        let first = run(spawn_seat);
        assert_eq!(first.len(), 3);
        assert!(!first.contains(&std::thread::current().id()));
        assert_eq!(run(never_spawn), first);
    }

    #[test]
    fn failed_grow_returns_leased_threads_and_starts_no_body() {
        static POOL: Pool = Pool::new();
        // Two idle threads, then one spawn succeeds and the next fails.
        POOL.run(vec![Box::new(|| {}), Box::new(|| {})], spawn_seat);
        let started = AtomicUsize::new(0);
        let bodies: Vec<Body> = (0..4)
            .map(|_| {
                Box::new(|| {
                    started.fetch_add(1, Ordering::SeqCst);
                }) as Body
            })
            .collect();
        let mut spawns = 0;
        let flaky = |pool| {
            spawns += 1;
            match spawns {
                1 => spawn_seat(pool),
                _ => Err(io::Error::other("thread limit")),
            }
        };
        let err = catch_unwind(AssertUnwindSafe(|| POOL.run(bodies, flaky))).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with("failed to spawn rank thread"), "{msg}");
        assert_eq!(started.load(Ordering::SeqCst), 0, "a body ran");
        assert_eq!(POOL.idle.lock().len(), 3, "leased threads leaked");
        // Every returned thread still serves.
        let bodies: Vec<Body> = (0..3)
            .map(|_| {
                Box::new(|| {
                    started.fetch_add(1, Ordering::SeqCst);
                }) as Body
            })
            .collect();
        POOL.run(bodies, never_spawn);
        assert_eq!(started.load(Ordering::SeqCst), 3);
    }
}
