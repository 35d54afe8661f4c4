//! The thread's tensor-buffer cache: where [`Tensor`](crate::Tensor) storage
//! comes from and where it goes back to on drop.
//!
//! EasyScale's ESTs time-slice one GPU so that they share one working set:
//! activation memory released at the end of a mini-batch is taken by the
//! next EST from the framework's caching allocator, not from the driver
//! (paper §3.2, the flat line of Fig 10). This is that allocator on the CPU,
//! one per thread, shared by every EST — and every worker — stepped there. A
//! local step asks for the same lengths every time, so after the first it
//! takes nothing from the system allocator and returns nothing to it, and
//! the heap is never trimmed and faulted in again.
//!
//! A buffer is matched by exact length and handed out with whatever it last
//! held: callers overwrite every element, or ask `Tensor::zeros` for the
//! fill. Debug builds fill a returned buffer with NaN before caching it, so
//! a kernel that reads before it writes turns a digest red instead of
//! depending on what the previous EST left there.

use std::cell::RefCell;

/// Most bytes one thread's cache holds; a buffer that would take it past
/// this is freed. It bounds what a thread holds while idle, so it is the
/// smallest size that holds a step with room to spare: a ResNet18 batch-8
/// step caches 0.2 MiB, Bert 0.1 MiB.
// A/B, `train_compute`, seed 1, two 20 s runs each, `work_per_s` /
// `peak_rss_mb`: 128 KiB (holds no whole step) 337, 348 / 6.80, 6.66; 1 MiB
// 368, 368 / 7.20, 7.16; 4 MiB 351, 340 / 7.13, 7.30; 16 MiB 330, 351 / 7.08,
// 7.16. Speed does not tell them apart; the allocation budget does.
const CAP_BYTES: usize = 1 << 20;

/// What a cached buffer costs beyond its elements (`Vec` header, allocator
/// chunk header), counted so that the bound also bounds their number.
const OVERHEAD: usize = 64;

struct Cache {
    /// `buckets[k]`: buffers of `len == capacity` in `2^k..2^(k+1)`.
    buckets: [Vec<Vec<f32>>; usize::BITS as usize],
    bytes: usize,
    /// What this thread has taken and not had back, in [`cost`]: all that
    /// `give` may keep. A thread thus caches no more than it has itself had
    /// out at once, and one that only drops other threads' tensors — the
    /// engine thread, handed a pool worker's BatchNorm statistics with every
    /// `StepBatch` — caches nothing.
    owed: usize,
    /// [`with_scratch`]'s buffers, grown to the largest product run here.
    scratch: (Vec<f32>, Vec<f32>),
}

thread_local! {
    static CACHE: RefCell<Cache> = const {
        RefCell::new(Cache {
            buckets: [const { Vec::new() }; usize::BITS as usize],
            bytes: 0,
            owed: 0,
            scratch: (Vec::new(), Vec::new()),
        })
    };
}

fn cost(len: usize) -> usize {
    len * std::mem::size_of::<f32>() + OVERHEAD
}

impl Cache {
    /// Whether a returned buffer of this cost may be kept; if so, accounted.
    fn admit(&mut self, cost: usize) -> bool {
        let fits = cost <= self.owed && self.bytes + cost <= CAP_BYTES;
        if fits {
            self.owed -= cost;
            self.bytes += cost;
        }
        fits
    }
}

/// A buffer of `len` elements with unspecified contents (NaN in debug
/// builds): the caller writes every element before reading any.
pub(crate) fn take(len: usize) -> Vec<f32> {
    let hit = CACHE.try_with(|c| {
        let cache = &mut *c.borrow_mut();
        cache.owed = (cache.owed + cost(len)).min(CAP_BYTES);
        let bucket = &mut cache.buckets[len.max(1).ilog2() as usize];
        // Newest first: the buffer given back last is the one still in L1.
        let at = bucket.iter().rposition(|b| b.len() == len)?;
        cache.bytes -= cost(len);
        Some(bucket.swap_remove(at))
    });
    match hit {
        Ok(Some(buf)) => buf,
        _ => vec![if cfg!(debug_assertions) { f32::NAN } else { 0.0 }; len],
    }
}

/// Return a buffer to the calling thread's cache — or free it, when there is
/// no room or the thread is exiting and its cache is gone.
pub(crate) fn give(mut buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    if cfg!(debug_assertions) {
        buf.clear();
    }
    // A cached buffer is as long as its capacity, so `take` never fills.
    buf.resize(buf.capacity(), f32::NAN);
    let _ = CACHE.try_with(|c| {
        let cache = &mut *c.borrow_mut();
        if cache.admit(cost(buf.len())) {
            cache.buckets[buf.len().ilog2() as usize].push(buf);
        }
    });
}

/// Bytes the calling thread's cache holds, [`OVERHEAD`] included. For tests:
/// a steady local step leaves it where it found it.
pub fn cached_bytes() -> usize {
    CACHE.with(|c| c.borrow().bytes)
}

/// Run `f` with the thread's kernel scratch buffers (`bt` and `scratch` of
/// [`matmul_a_bt_into`](crate::ops::matmul_a_bt_into)): a loop of products
/// allocates nothing once they have grown. They are taken out for the call,
/// so `f` may make and drop tensors; a nested call starts from empty ones.
pub fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>) -> R) -> R {
    let (mut bt, mut scratch) = CACHE.with(|c| std::mem::take(&mut c.borrow_mut().scratch));
    let out = f(&mut bt, &mut scratch);
    CACHE.with(|c| c.borrow_mut().scratch = (bt, scratch));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn a_dropped_buffer_is_the_next_one_of_its_length() {
        let a = Tensor::zeros(&[3, 5]);
        let at = a.data().as_ptr();
        drop(a);
        let before = cached_bytes();
        let b = Tensor::uninit(&[15]);
        assert_eq!(b.data().as_ptr(), at, "same length: the cached buffer");
        assert_eq!(cached_bytes(), before - cost(15));
        let c = Tensor::uninit(&[16]);
        assert_ne!(c.data().as_ptr(), at, "another length: a fresh one");
    }

    #[test]
    fn debug_builds_poison_what_they_cache_and_zeros_still_zeroes() {
        drop(Tensor::full(&[7], 3.0));
        let stale = Tensor::uninit(&[7]);
        if cfg!(debug_assertions) {
            assert!(stale.data().iter().all(|x| x.is_nan()), "poisoned on return");
        }
        drop(stale);
        assert!(Tensor::zeros(&[7]).data().iter().all(|&x| x.to_bits() == 0));
    }

    #[test]
    fn into_vec_takes_the_buffer_out_of_the_cycle() {
        let before = cached_bytes();
        let v = Tensor::zeros(&[9]).into_vec();
        assert_eq!((v.len(), cached_bytes()), (9, before), "nothing came back");
    }

    /// `StepBatch::recovery` ships BatchNorm statistics made on a pool thread
    /// to the engine thread every step, where they are dropped: the engine
    /// thread keeps what it had out itself and not a byte of theirs, and the
    /// pool thread, which never sees them again, stays inside the bound.
    #[test]
    fn a_thread_caches_no_more_than_it_has_itself_had_out() {
        drop(Tensor::zeros(&[1000]));
        let own = cached_bytes();
        assert_eq!(own, cost(1000));
        let made = std::thread::scope(|s| {
            let steps = s.spawn(|| {
                let step = |i: usize| {
                    let stats = (0..6).map(|_| Tensor::zeros(&[16]));
                    let made: Vec<Tensor> = stats.chain([Tensor::zeros(&[4096 + i % 2])]).collect();
                    assert!(cached_bytes() <= CAP_BYTES, "bounded where they were made");
                    made
                };
                (0..400).map(step).collect::<Vec<_>>()
            });
            steps.join().expect("the making thread panicked")
        });
        for batch in made {
            drop(batch);
            assert_eq!(cached_bytes(), own, "nothing kept where they were dropped");
        }
    }

    #[test]
    fn scratch_buffers_survive_between_calls_and_tolerate_nesting() {
        with_scratch(|bt, _| bt.resize(100, 1.0));
        with_scratch(|bt, scratch| {
            assert_eq!(bt.len(), 100, "kept from the last call");
            scratch.push(2.0);
            with_scratch(|inner, _| assert!(inner.is_empty(), "nested: its own"));
            drop(Tensor::zeros(&[4]));
        });
        with_scratch(|bt, scratch| assert_eq!((bt.len(), scratch.len()), (100, 1)));
    }
}
