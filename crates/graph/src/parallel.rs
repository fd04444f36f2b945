//! Deterministic fan-out over contiguous chunks.
//!
//! [`fan_out`] is the one place the matcher and the census spawn threads.
//! Work is cut into consecutive chunks, one chunk per worker, and the
//! chunk results fold back in chunk order. A caller whose per-chunk work
//! is a pure function of the chunk therefore gets the same result at
//! every worker count; one chunk runs on the calling thread with no
//! spawn at all.

/// How many workers `len` independent items are split over: all
/// `threads` once each gets at least two items, else one.
pub fn workers_for(len: usize, threads: usize) -> usize {
    if len < 2 * threads {
        1
    } else {
        threads
    }
}

/// Cut `items` into `workers` consecutive chunks of `len.div_ceil(workers)`
/// items, run `work` on each — on the calling thread when that leaves a
/// single chunk, else one scoped thread per chunk — and fold the results
/// in chunk order with `merge`.
pub fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    work: impl Fn(&[T]) -> R + Sync,
    mut merge: impl FnMut(&mut R, R),
) -> R {
    let chunk = items.len().div_ceil(workers.max(1));
    if chunk >= items.len() {
        return work(items);
    }
    let results: Vec<R> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                let work = &work;
                scope.spawn(move || work(c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut results = results.into_iter();
    let mut acc = results.next().expect("at least two chunks");
    for r in results {
        merge(&mut acc, r);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_fold_in_order_at_any_worker_count() {
        let items: Vec<u32> = (0..37).collect();
        let concat = |acc: &mut Vec<u32>, part: Vec<u32>| acc.extend(part);
        for workers in [0, 1, 2, 3, 8, 64] {
            let got = fan_out(&items, workers, |c| c.to_vec(), concat);
            assert_eq!(got, items, "workers={workers}");
        }
        assert!(fan_out(&[] as &[u32], 4, |c| c.to_vec(), concat).is_empty());
    }
}
