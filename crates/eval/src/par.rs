//! Minimal std-only fork-join helpers for the evaluation harness.
//!
//! The harness fans out over *fixed* job lists — benchmark×method grids
//! and RNG shards — so deterministic parallelism reduces to one shape:
//! run `len` index-addressed jobs on `threads` scoped workers (strided
//! assignment), collect the results *in job order*. Whatever the thread
//! count, the caller sees the same `Vec`.

/// Runs `f(0..len)` across `threads` scoped workers and returns the
/// results in index order. `threads` is resolved via
/// [`onoc_ctx::resolve_threads`] and clamped to `len`; one effective
/// worker short-circuits to a plain sequential loop on the calling thread.
///
/// # Panics
///
/// Re-raises a panic from any job.
pub fn run_indexed<T, F>(len: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = onoc_ctx::resolve_threads(threads).min(len);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = t;
                    while i < len {
                        out.push((i, f(i)));
                        i += threads;
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (i, value) in handle.join().expect("eval worker panicked") {
                slots[i] = Some(value);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("strided assignment covers every job"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_job_order_for_any_thread_count() {
        let reference: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(run_indexed(37, threads, |i| i * i), reference);
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }
}
