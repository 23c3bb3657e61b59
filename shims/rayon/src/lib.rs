#![warn(missing_docs)]

//! Offline shim for `rayon`: the parallel-iterator subset this
//! workspace uses, executed on a persistent thread pool (one worker per
//! logical CPU, lazily started).
//!
//! Supported pipeline shapes: `par_chunks(_mut)`, `par_iter(_mut)`,
//! `into_par_iter` on vectors/slices/ranges, then `zip` / `enumerate` /
//! `map` / `for_each` / `for_each_init` / `collect` / numeric `sum`.
//! Items are materialised eagerly (they are cheap references or indices
//! in every call site), while `map`/`for_each` closures run on the pool,
//! so the compute-heavy part genuinely executes in parallel. Nested
//! parallel calls from inside a worker run inline, which keeps the pool
//! deadlock-free.

mod pool;

pub use pool::current_num_threads;

/// Parallel-iterator traits and slice extensions, mirroring
/// `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

use pool::scope_run;

/// A materialised parallel iterator over `T` items.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Conversion into a [`ParIter`] (mirrors `rayon::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;
    /// Convert into the concrete parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// `.par_iter()` on shared collections.
pub trait IntoParallelRefIterator<'a> {
    /// Item type produced (a shared reference).
    type Item: Send;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `.par_iter_mut()` on exclusive collections.
pub trait IntoParallelRefMutIterator<'a> {
    /// Item type produced (an exclusive reference).
    type Item: Send;
    /// Borrowing parallel iterator.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }
}

/// `.par_chunks()` over slices.
pub trait ParallelSlice<T: Sync> {
    /// Split into `size`-sized shared chunks, processed in parallel.
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        ParIter {
            items: self.chunks(size).collect(),
        }
    }
}

/// `.par_chunks_mut()` over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Split into `size`-sized exclusive chunks, processed in parallel.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(size).collect(),
        }
    }
}

impl<T: Send> ParIter<T> {
    /// Pair up with another parallel iterator (shorter side wins).
    pub fn zip<U: Send, I: IntoParallelIterator<Item = U>>(self, other: I) -> ParIter<(T, U)> {
        ParIter {
            items: self
                .items
                .into_iter()
                .zip(other.into_par_iter().items)
                .collect(),
        }
    }

    /// Attach each item's index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }
}

/// Consuming operations that actually run on the pool (mirrors the used
/// part of `rayon::ParallelIterator`).
pub trait ParallelIterator: IntoParallelIterator + Sized {
    /// Apply `f` to every item in parallel.
    fn for_each<F: Fn(Self::Item) + Sync + Send>(self, f: F) {
        let items = self.into_par_iter().items;
        run_parallel(items, &f);
    }

    /// Apply `f` to every item in parallel, handing it a `&mut` value
    /// that `init` makes: one per group of items, so scratch that `f`
    /// reuses is allocated once per worker, not once per item.
    fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, Self::Item) + Sync + Send,
    {
        let groups = chunk_tasks(self.into_par_iter().items);
        run_parallel(groups, &|group: Vec<Self::Item>| {
            let mut scratch = init();
            for item in group {
                f(&mut scratch, item);
            }
        });
    }

    /// Parallel map; results keep item order.
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync + Send>(self, f: F) -> ParIter<U> {
        let items = self.into_par_iter().items;
        let n = items.len();
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let slots: Vec<(&mut Option<U>, Self::Item)> = out.iter_mut().zip(items).collect();
            let f = &f;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunk_tasks(slots)
                .into_iter()
                .map(|group| {
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        for (slot, item) in group {
                            *slot = Some(f(item));
                        }
                    });
                    task
                })
                .collect();
            scope_run(tasks);
        }
        ParIter {
            items: out
                .into_iter()
                .map(|v| v.expect("map slot filled"))
                .collect(),
        }
    }

    /// Collect into a `Vec`, preserving order.
    fn collect_vec(self) -> Vec<Self::Item> {
        self.into_par_iter().items
    }

    /// Parallel sum.
    fn sum<S: std::iter::Sum<Self::Item> + Send>(self) -> S
    where
        Self::Item: Send,
    {
        self.into_par_iter().items.into_iter().sum()
    }
}

// Only the concrete iterator type implements the consuming trait.
// A blanket impl over `IntoParallelIterator` would attach `.map` to
// `Range`/`Vec` themselves and clash with `Iterator::map` at every
// call site that has the prelude in scope (upstream rayon has the
// same split for the same reason).
impl<T: Send> ParallelIterator for ParIter<T> {}

/// Split `items` into one task per pool worker and run `f` over them.
fn run_parallel<T: Send, F: Fn(T) + Sync>(items: Vec<T>, f: &F) {
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunk_tasks(items)
        .into_iter()
        .map(|group| {
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                for item in group {
                    f(item);
                }
            });
            task
        })
        .collect();
    scope_run(tasks);
}

/// Partition items into roughly even contiguous groups, one per worker.
fn chunk_tasks<T>(items: Vec<T>) -> Vec<Vec<T>> {
    let workers = current_num_threads().max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let per = n.div_ceil(workers);
    let mut groups = Vec::with_capacity(workers);
    let mut iter = items.into_iter();
    loop {
        let group: Vec<T> = iter.by_ref().take(per).collect();
        if group.is_empty() {
            break;
        }
        groups.push(group);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_mut_zip_enumerate_for_each() {
        let mut out = vec![0i64; 12];
        let mut aux = vec![0i64; 6];
        out.par_chunks_mut(4)
            .zip(aux.par_chunks_mut(2))
            .enumerate()
            .for_each(|(i, (o, a))| {
                for v in o.iter_mut() {
                    *v = i as i64;
                }
                for v in a.iter_mut() {
                    *v = -(i as i64);
                }
            });
        assert_eq!(out, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(aux, vec![0, 0, -1, -1, -2, -2]);
    }

    #[test]
    fn for_each_init_reuses_one_scratch_per_group() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let mut out = vec![0usize; 100];
        out.par_chunks_mut(1).enumerate().for_each_init(
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            },
            |seen: &mut Vec<usize>, (i, o)| {
                seen.push(i);
                o[0] = i + seen.len();
            },
        );
        let groups = inits.load(Ordering::Relaxed);
        assert!((1..=crate::current_num_threads()).contains(&groups));
        // items of a group arrive in order, so the scratch counts them
        let per = 100usize.div_ceil(crate::current_num_threads());
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, i + i % per + 1);
        }
    }

    #[test]
    fn map_preserves_order() {
        let squares = (0..100usize).into_par_iter().map(|i| i * i).collect_vec();
        assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_mut_applies_everywhere() {
        let mut data = vec![1u32; 1000];
        data.par_iter_mut().for_each(|v| *v += 1);
        assert!(data.iter().all(|&v| v == 2));
    }
}
