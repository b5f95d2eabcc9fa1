//! The simulator's fan-out: runs independent slots on several OS threads
//! and hands every result back in slot order.
//!
//! The two host-parallel loops of the simulator run through [`run`]: the
//! regions of a §10.2 sensor frame (`StreamingPipeline`,
//! `VideoPipeline`) and the jobs of one serving dispatch step (the
//! cluster event loop in `shidiannao-serve`). The `par_iter` loops of
//! the cascade evaluation (`shidiannao-quant`) and of the harness's
//! experiments and autotuner (`shidiannao-bench`) still run on the
//! vendored rayon shim, which keeps its own copy of the worker-count
//! rule. Every slot is a pure
//! function of its own inputs and each worker writes only into the slots
//! it claimed, so callers fold the slots afterwards in slot order and get
//! the same report at any worker count; [`workers`] is the one rule for
//! how many threads that is.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Workers a fan-out runs on: `requested` when it is at least 1, else
/// `RAYON_NUM_THREADS` when it is a positive integer (the vendored rayon
/// shim's rule), else the machine's available parallelism.
pub fn workers(requested: usize) -> usize {
    if requested >= 1 {
        return requested;
    }
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs `run(state, i, &mut slots[i])` for every slot, on up to `workers`
/// threads, the calling thread included, and returns the states the
/// workers opened.
///
/// Slots are split into fixed blocks of `block_len` slots (at least 1),
/// claimed through an atomic index. Each worker opens its own `state`
/// (say a `Session` and its tally) with `open` on its first block, so
/// `open` runs at most once per worker and never for a worker that
/// claims nothing. The caller thread drains blocks too rather than
/// idling: every extra thread costs memory of its own. A slot that fails
/// ends its block; other blocks still run.
///
/// # Errors
///
/// The error of the lowest-indexed slot that failed.
pub fn run<T, S, E>(
    slots: &mut [T],
    block_len: usize,
    workers: usize,
    open: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize, &mut T) -> Result<(), E> + Sync,
) -> Result<Vec<S>, E>
where
    T: Send,
    S: Send,
    E: Send,
{
    let block_len = block_len.max(1);
    let workers = workers.min(slots.len().div_ceil(block_len));
    if workers <= 1 {
        let mut state = None;
        for (i, slot) in slots.iter_mut().enumerate() {
            run(state.get_or_insert_with(&open), i, slot)?;
        }
        return Ok(state.into_iter().collect());
    }
    let blocks: Vec<Mutex<&mut [T]>> = slots.chunks_mut(block_len).map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let failed: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let drain = || {
        let mut state = None;
        loop {
            // Relaxed: the index only hands out block numbers; each
            // block's slots sit behind their own mutex.
            let b = next.fetch_add(1, Ordering::Relaxed);
            let Some(block) = blocks.get(b) else { break };
            let mut block = block.lock().expect("a block is claimed once");
            let state = state.get_or_insert_with(&open);
            for (k, slot) in block.iter_mut().enumerate() {
                let i = b * block_len + k;
                if let Err(e) = run(state, i, slot) {
                    let mut failed = failed.lock().expect("no worker panics holding it");
                    if failed.as_ref().is_none_or(|(j, _)| i < *j) {
                        *failed = Some((i, e));
                    }
                    break;
                }
            }
        }
        state
    };
    let states = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut states: Vec<S> = drain().into_iter().collect();
        for worker in spawned {
            states.extend(
                worker
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        states
    });
    match failed.into_inner().expect("no worker panics holding it") {
        Some((_, e)) => Err(e),
        None => Ok(states),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `n` slots that each count their own runs; the state counts
    /// the slots its worker ran.
    fn counted(n: usize, block_len: usize, workers: usize) -> (Vec<u32>, Vec<usize>, usize) {
        let opens = AtomicUsize::new(0);
        let mut slots = vec![0u32; n];
        let states = run(
            &mut slots,
            block_len,
            workers,
            || {
                opens.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |ran, i, slot: &mut u32| {
                assert!(i < n);
                *slot += 1;
                *ran += 1;
                Ok::<_, ()>(())
            },
        )
        .expect("no slot fails");
        (slots, states, opens.into_inner())
    }

    #[test]
    fn zero_slots_open_nothing() {
        for workers in [0, 1, 3] {
            let (slots, states, opens) = counted(0, 4, workers);
            assert!(slots.is_empty() && states.is_empty());
            assert_eq!(opens, 0, "{workers} workers");
        }
    }

    #[test]
    fn every_slot_runs_once_and_each_worker_opens_at_most_once() {
        // Blocks longer than the slot list, ragged last blocks, exact
        // fits, and block length 1 (clamped from 0 too).
        for (n, block_len) in [(5, 8), (10, 3), (12, 4), (7, 1), (6, 0), (1, 1)] {
            for workers in [1, 2, 3, 7] {
                let (slots, states, opens) = counted(n, block_len, workers);
                assert!(slots.iter().all(|&c| c == 1), "{n}/{block_len}/{workers}");
                assert_eq!(states.len(), opens);
                assert!(opens >= 1 && opens <= workers.min(n.div_ceil(block_len.max(1))));
                assert_eq!(states.iter().sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn slots_see_their_own_index() {
        let mut slots = vec![usize::MAX; 11];
        run(
            &mut slots,
            3,
            3,
            || (),
            |(), i, slot| {
                *slot = i;
                Ok::<_, ()>(())
            },
        )
        .expect("no slot fails");
        assert_eq!(slots, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn lowest_indexed_error_wins() {
        let failing = [3usize, 4, 9, 17];
        for block_len in [1, 2, 5] {
            for workers in [1, 2, 3, 7] {
                let mut slots = vec![(); 20];
                let err = run(
                    &mut slots,
                    block_len,
                    workers,
                    || (),
                    |(), i, ()| {
                        if failing.contains(&i) {
                            Err(i)
                        } else {
                            Ok(())
                        }
                    },
                )
                .expect_err("slots fail");
                assert_eq!(err, 3, "block {block_len}, {workers} workers");
            }
        }
    }

    #[test]
    fn a_positive_request_is_taken_as_is() {
        assert_eq!(workers(1), 1);
        assert_eq!(workers(5), 5);
        assert!(workers(0) >= 1);
    }
}
