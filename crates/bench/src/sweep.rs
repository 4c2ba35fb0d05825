//! Parallel figure-cell executor.
//!
//! Every figure is a grid of independent experiment cells (config × kind ×
//! rate × seed). Each figure module enumerates its grid as boxed closures
//! in a fixed order; [`run_cells`] executes them across a scoped worker
//! pool and returns results **in input order**, so the rendered tables and
//! the emitted JSON are byte-identical to a sequential run regardless of
//! the worker count.
//!
//! The worker count comes from [`set_jobs`] (the `repro --jobs N` flag) and
//! defaults to [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One unit of figure work: runs on exactly one worker thread.
pub type Cell<T> = Box<dyn FnOnce() -> T + Send>;

/// Configured worker count; 0 = auto (`available_parallelism`).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for all subsequent sweeps (0 = auto).
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// The effective worker count: the [`set_jobs`] override, else the host's
/// available parallelism.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Executes `cells` across the configured worker pool, returning results in
/// input order. With one worker (or one cell) this degenerates to a plain
/// sequential loop on the calling thread.
pub fn run_cells<T: Send>(cells: Vec<Cell<T>>) -> Vec<T> {
    run_cells_with(jobs(), cells)
}

/// [`run_cells`] with an explicit worker count.
pub fn run_cells_with<T: Send>(jobs: usize, cells: Vec<Cell<T>>) -> Vec<T> {
    let n = cells.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return cells.into_iter().map(|cell| cell()).collect();
    }

    // Work queue in reverse so `pop()` hands cells out in input order;
    // each worker writes its result into the cell's input-order slot.
    let queue: Mutex<Vec<(usize, Cell<T>)>> =
        Mutex::new(cells.into_iter().enumerate().rev().collect());
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let next = queue.lock().unwrap().pop();
                let Some((index, cell)) = next else { break };
                let out = cell();
                results.lock().unwrap()[index] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker pool ran every cell"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let cells: Vec<Cell<usize>> = (0usize..32)
            .map(|i| {
                Box::new(move || {
                    // Uneven cell cost: later cells finish before earlier
                    // ones unless ordering is enforced at collection.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((32 - i) % 7) as u64 * 100,
                    ));
                    i * 10
                }) as Cell<usize>
            })
            .collect();
        let out = run_cells_with(8, cells);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let make = || -> Vec<Cell<u64>> {
            (0..16)
                .map(|i| Box::new(move || (i as u64).wrapping_mul(0x9E37)) as Cell<u64>)
                .collect()
        };
        assert_eq!(run_cells_with(1, make()), run_cells_with(8, make()));
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let none: Vec<Cell<u8>> = Vec::new();
        assert!(run_cells_with(8, none).is_empty());
        let one: Vec<Cell<u8>> = vec![Box::new(|| 7)];
        assert_eq!(run_cells_with(64, one), vec![7]);
    }

    #[test]
    fn jobs_default_is_host_parallelism() {
        set_jobs(0);
        assert!(jobs() >= 1);
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
    }
}
