//! Refcounted block arena with a free list.
//!
//! [`BlockArena`] serves a recurring allocation pattern in the simulator
//! that append-only storage cannot — short-lived, bounded
//! slices that are created and dropped millions of times (peer lists
//! riding on protocol messages). Each *block* is a reusable `Vec<T>`: a
//! handle layer (e.g. `plsim_proto::SharedPeerList`) interns a slice into
//! a block, bumps the block's refcount on clone, and releases it on drop,
//! at which point the block's storage goes back on the free list with its
//! capacity intact. Once the arena has warmed to the workload's peak
//! concurrency, interning and releasing allocate nothing.
//!
//! The arena is deliberately single-threaded plumbing (no atomics); wrap
//! it in `Rc<RefCell<_>>` for shared handles, as the capture tap does with
//! its state.

/// One reusable slice slot plus its reference count.
#[derive(Debug, Clone)]
struct Block<T> {
    items: Vec<T>,
    refs: u32,
}

/// A free-list arena of refcounted, reusable blocks (see module docs).
#[derive(Debug, Clone)]
pub struct BlockArena<T> {
    blocks: Vec<Block<T>>,
    free: Vec<u32>,
}

impl<T> Default for BlockArena<T> {
    fn default() -> Self {
        BlockArena {
            blocks: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> BlockArena<T> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        BlockArena::default()
    }

    /// Interns the items produced by `fill` into a block and returns the
    /// block's index with an initial reference count of one. `fill`
    /// appends into the block's reused storage; steady state this
    /// allocates nothing (the block `Vec` keeps its capacity across
    /// reuse).
    pub fn intern_with(&mut self, fill: impl FnOnce(&mut Vec<T>)) -> u32 {
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                self.blocks.push(Block {
                    items: Vec::new(),
                    refs: 0,
                });
                (self.blocks.len() - 1) as u32
            }
        };
        let block = &mut self.blocks[index as usize];
        block.items.clear();
        block.refs = 1;
        fill(&mut block.items);
        index
    }

    /// The interned slice of `block`.
    #[must_use]
    pub fn get(&self, block: u32) -> &[T] {
        &self.blocks[block as usize].items
    }

    /// Adds a reference to `block` (handle clone).
    pub fn retain(&mut self, block: u32) {
        self.blocks[block as usize].refs += 1;
    }

    /// Drops a reference to `block` (handle drop); when the count reaches
    /// zero the block returns to the free list, storage intact.
    pub fn release(&mut self, block: u32) {
        let b = &mut self.blocks[block as usize];
        debug_assert!(b.refs > 0, "release of a dead block");
        b.refs -= 1;
        if b.refs == 0 {
            self.free.push(block);
        }
    }

    /// Blocks currently on the free list.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Blocks currently holding a live interned slice.
    #[must_use]
    pub fn live_blocks(&self) -> usize {
        self.blocks.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_get_roundtrip() {
        let mut a: BlockArena<u32> = BlockArena::new();
        let b0 = a.intern_with(|v| v.extend([1, 2, 3]));
        let b1 = a.intern_with(|v| v.extend([9]));
        assert_eq!(a.get(b0), &[1, 2, 3]);
        assert_eq!(a.get(b1), &[9]);
        assert_eq!(a.live_blocks(), 2);
    }

    #[test]
    fn release_recycles_and_reuse_keeps_capacity() {
        let mut a: BlockArena<u32> = BlockArena::new();
        let b0 = a.intern_with(|v| v.extend(0..50));
        a.release(b0);
        assert_eq!(a.free_blocks(), 1);
        // The next intern reuses the freed block, not a new one.
        let b1 = a.intern_with(|v| v.extend([7]));
        assert_eq!(b1, b0);
        assert_eq!((a.live_blocks(), a.free_blocks()), (1, 0));
        assert_eq!(a.get(b1), &[7]);
    }

    #[test]
    fn retain_delays_recycling() {
        let mut a: BlockArena<u32> = BlockArena::new();
        let b = a.intern_with(|v| v.push(5));
        a.retain(b);
        a.release(b);
        assert_eq!(a.free_blocks(), 0, "still one reference");
        a.release(b);
        assert_eq!(a.free_blocks(), 1);
    }
}
