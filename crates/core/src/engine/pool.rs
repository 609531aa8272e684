//! Recycled executor buffers shared across layers, calls, and worker
//! threads.

use std::sync::Mutex;

/// Pool of recycled buffers shared across layers, calls, and worker threads.
///
/// Holds the executor arenas (checked out per row-tile, including from rayon
/// workers — hence the mutex, which is touched twice per row-tile and never
/// inside the accumulation loops). The output and spike-chain buffers live
/// directly on the [`Session`](super::Session).
#[derive(Debug, Default)]
pub(crate) struct BufferPool<T> {
    arenas: Mutex<Vec<Vec<T>>>,
}

impl<T> BufferPool<T> {
    pub(crate) fn take_arena(&self) -> Vec<T> {
        self.arenas
            .lock()
            .expect("buffer pool poisoned")
            .pop()
            .unwrap_or_default()
    }

    pub(crate) fn put_arena(&self, arena: Vec<T>) {
        self.arenas
            .lock()
            .expect("buffer pool poisoned")
            .push(arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_buffers() {
        let pool: BufferPool<i64> = BufferPool::default();
        let mut arena = pool.take_arena();
        arena.resize(64, 0);
        pool.put_arena(arena);
        assert!(pool.take_arena().capacity() >= 64);
    }
}
