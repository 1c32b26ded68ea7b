//! Index-slotted parallel map: the one thread helper behind every
//! fan-out in the workspace (replications, sweep grid points, library
//! titles).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Run `f(i)` for every `i < n` on at most `threads` OS threads, returning
/// the results slotted by index.
///
/// Execution *order* is nondeterministic above one thread; the result
/// vector never is — `out[i] == f(i)` regardless of which worker computed
/// it or when. With `threads <= 1` or a single item this degenerates to a
/// plain sequential map (the exact legacy path: same calls, same order, no
/// threads spawned).
pub fn fan_out<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        for _ in 0..threads.min(n) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, v) in rx {
            slots[i] = Some(v);
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("fan_out worker dropped a slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_slots_results_by_index() {
        for threads in [1, 2, 8] {
            let out = fan_out(17, threads, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(fan_out(0, 4, |i| i).is_empty());
    }
}
