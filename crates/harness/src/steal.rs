//! A shared work-stealing queue for campaign worker pools.
//!
//! Jobs are dealt into per-worker deques up front (contiguous runs, so a
//! worker drains one file's shards back-to-back and keeps its prepared
//! variant space hot); each worker pops from the **front** of its own
//! deque and, when empty, steals from the **back** of a victim's — the
//! jobs its owner would reach last. Compared with a single shared cursor,
//! skew from one slow job no longer serializes the tail: whoever runs dry
//! takes work from whoever has the most left.
//!
//! Completion order does not affect campaign results — outputs are folded
//! in deterministic job order afterwards — so stealing is free to be
//! opportunistic.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A fixed set of jobs distributed over per-worker stealable deques.
///
/// # Examples
///
/// ```
/// use spe_harness::steal::WorkQueue;
///
/// let q = WorkQueue::new(vec!['a', 'b', 'c'], 2);
/// let mut got = Vec::new();
/// while let Some(job) = q.pop(0) {
///     got.push(job);
/// }
/// got.sort();
/// assert_eq!(got, vec!['a', 'b', 'c']); // worker 0 drained its own deque, then stole
/// assert_eq!(q.pop(1), None);
/// ```
#[derive(Debug)]
pub struct WorkQueue<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
}

impl<T> WorkQueue<T> {
    /// Deals `jobs` into `workers` deques in contiguous near-even runs
    /// (job order is preserved within and across deques).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(jobs: Vec<T>, workers: usize) -> WorkQueue<T> {
        assert!(workers > 0, "at least one worker is required");
        let total = jobs.len();
        let mut deques: Vec<Mutex<VecDeque<T>>> = Vec::with_capacity(workers);
        let mut jobs = jobs.into_iter();
        for w in 0..workers {
            // Near-even contiguous cut, same arithmetic as shard ranges.
            let start = total * w / workers;
            let end = total * (w + 1) / workers;
            deques.push(Mutex::new(jobs.by_ref().take(end - start).collect()));
        }
        WorkQueue { deques }
    }

    /// Number of worker deques.
    pub fn workers(&self) -> usize {
        self.deques.len()
    }

    /// Takes the next job for `worker`: the front of its own deque, or —
    /// once that is empty — the back of the first non-empty victim,
    /// scanning round-robin from its right neighbour. Returns `None` only
    /// when every deque is empty.
    ///
    /// # Panics
    ///
    /// Panics if `worker >= self.workers()`.
    pub fn pop(&self, worker: usize) -> Option<T> {
        self.pop_from(worker).map(|(job, _)| job)
    }

    /// [`WorkQueue::pop`], also reporting whether the job was stolen
    /// from a victim's deque rather than popped from the worker's own
    /// (the signal behind the orchestrator's steal counter).
    ///
    /// # Panics
    ///
    /// Panics if `worker >= self.workers()`.
    pub fn pop_from(&self, worker: usize) -> Option<(T, bool)> {
        assert!(worker < self.deques.len(), "worker {worker} out of range");
        if let Some(job) = self.deques[worker].lock().expect("poisoned").pop_front() {
            return Some((job, false));
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(job) = self.deques[victim].lock().expect("poisoned").pop_back() {
                return Some((job, true));
            }
        }
        None
    }

    /// Jobs currently queued across all deques (jobs already popped and
    /// in flight are not counted). Takes each deque lock briefly, so
    /// callers gate this behind an enabled telemetry sink.
    pub fn len(&self) -> usize {
        self.deques
            .iter()
            .map(|d| d.lock().expect("poisoned").len())
            .sum()
    }

    /// Whether no jobs remain queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_job_is_popped_exactly_once_single_worker() {
        let q = WorkQueue::new((0..10).collect(), 1);
        let mut got = Vec::new();
        while let Some(j) = q.pop(0) {
            got.push(j);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn owner_pops_its_own_contiguous_run_first() {
        let q = WorkQueue::new((0..8).collect(), 4);
        // Worker 2's run is [4, 5]; it must see those before stealing.
        assert_eq!(q.pop(2), Some(4));
        assert_eq!(q.pop(2), Some(5));
        // Now it steals from a neighbour's back.
        let stolen = q.pop(2).expect("work remains");
        assert!(stolen != 4 && stolen != 5);
    }

    #[test]
    fn stealing_takes_from_the_victims_back() {
        let q = WorkQueue::new((0..6).collect(), 2);
        // Worker 1 drains its own run [3, 4, 5], then steals worker 0's
        // back job (2) while worker 0 would pop 0 next.
        assert_eq!(q.pop(1), Some(3));
        assert_eq!(q.pop(1), Some(4));
        assert_eq!(q.pop(1), Some(5));
        assert_eq!(q.pop(1), Some(2), "steal takes the victim's back");
        assert_eq!(q.pop(0), Some(0), "owner still pops its front");
    }

    #[test]
    fn pop_from_flags_steals_and_len_tracks_remaining() {
        let q = WorkQueue::new((0..4).collect::<Vec<i32>>(), 2);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_from(0), Some((0, false)), "own front is not a steal");
        assert_eq!(q.pop_from(0), Some((1, false)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_from(0), Some((3, true)), "victim's back is a steal");
        assert_eq!(q.pop_from(1), Some((2, false)));
        assert!(q.is_empty());
        assert_eq!(q.pop_from(0), None);
    }

    #[test]
    fn more_workers_than_jobs_still_covers_everything() {
        let q = WorkQueue::new(vec![7usize, 8], 5);
        let mut got: Vec<usize> = (0..5).filter_map(|w| q.pop(w)).collect();
        got.sort();
        assert_eq!(got, vec![7, 8]);
        for w in 0..5 {
            assert_eq!(q.pop(w), None);
        }
    }

    #[test]
    fn concurrent_workers_partition_the_jobs() {
        let jobs = 200usize;
        let q = WorkQueue::new((0..jobs).collect(), 8);
        let seen = Mutex::new(HashSet::new());
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..8 {
                let q = &q;
                let seen = &seen;
                let popped = &popped;
                scope.spawn(move || {
                    while let Some(j) = q.pop(w) {
                        assert!(
                            seen.lock().expect("poisoned").insert(j),
                            "job {j} duplicated"
                        );
                        popped.fetch_add(1, Ordering::Relaxed);
                        if j % 7 == 0 {
                            std::thread::yield_now(); // uneven job cost
                        }
                    }
                });
            }
        });
        assert_eq!(popped.into_inner(), jobs);
    }
}
