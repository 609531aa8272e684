//! Recycled executor buffers shared across layers, calls, and worker
//! threads.

use std::sync::Mutex;

/// Reusable executor buffers for one row-tile worker.
#[derive(Debug)]
pub(crate) struct ExecScratch<T> {
    pub(crate) arena: Vec<T>,
    pub(crate) parents: Vec<bool>,
}

impl<T> Default for ExecScratch<T> {
    fn default() -> Self {
        Self {
            arena: Vec::new(),
            parents: Vec::new(),
        }
    }
}

/// Pool of recycled buffers shared across layers, calls, and worker threads.
///
/// Holds the executor arenas (checked out per row-tile, including from rayon
/// workers — hence the mutex, which is touched twice per row-tile and never
/// inside the accumulation loops). The output and spike-chain buffers live
/// directly on the [`Session`](super::Session).
#[derive(Debug, Default)]
pub(crate) struct BufferPool<T> {
    exec: Mutex<Vec<ExecScratch<T>>>,
}

impl<T> BufferPool<T> {
    pub(crate) fn take_exec(&self) -> ExecScratch<T> {
        self.exec
            .lock()
            .expect("buffer pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    pub(crate) fn put_exec(&self, scratch: ExecScratch<T>) {
        self.exec
            .lock()
            .expect("buffer pool poisoned")
            .push(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_buffers() {
        let pool: BufferPool<i64> = BufferPool::default();
        let mut s = pool.take_exec();
        s.arena.resize(64, 0);
        pool.put_exec(s);
        let s2 = pool.take_exec();
        assert!(s2.arena.capacity() >= 64);
    }
}
