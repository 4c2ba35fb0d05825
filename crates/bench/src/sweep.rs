//! Parallel figure-cell executor.
//!
//! Every figure is a grid of independent experiment cells (config × kind ×
//! rate × seed). Each figure module only enumerates its grid as boxed
//! closures in a fixed order; the binaries hand the grid to [`run_cells`],
//! which executes it across a scoped worker pool and returns results **in
//! input order**, so the rendered tables and the emitted JSON are
//! byte-identical to a sequential run regardless of the worker count.

use std::sync::Mutex;

/// One unit of figure work: runs on exactly one worker thread.
pub type Cell<T> = Box<dyn FnOnce() -> T + Send>;

/// The worker count a `--jobs` flag asks for: the flag's value, or the
/// host's available parallelism for 0.
pub fn workers(flag: usize) -> usize {
    match flag {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Executes `cells` across `jobs` workers, returning results in input
/// order. With one worker (or one cell) this degenerates to a plain
/// sequential loop on the calling thread.
pub fn run_cells<T: Send>(jobs: usize, cells: Vec<Cell<T>>) -> Vec<T> {
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
        let out = run_cells(8, cells);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_parallel() {
        let make = || -> Vec<Cell<u64>> {
            (0..16)
                .map(|i| Box::new(move || (i as u64).wrapping_mul(0x9E37)) as Cell<u64>)
                .collect()
        };
        assert_eq!(run_cells(1, make()), run_cells(8, make()));
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let none: Vec<Cell<u8>> = Vec::new();
        assert!(run_cells(8, none).is_empty());
        let one: Vec<Cell<u8>> = vec![Box::new(|| 7)];
        assert_eq!(run_cells(64, one), vec![7]);
    }

    #[test]
    fn zero_workers_means_host_parallelism() {
        assert!(workers(0) >= 1);
        assert_eq!(workers(3), 3);
    }
}
