//! Zero-copy peer lists: [`PeerListArena`] and [`SharedPeerList`].
//!
//! Peer lists are the hot payload of the protocol: every tracker reply and
//! every 20-second gossip round carries one, and at paper scale the owned
//! [`PeerList`] path clones its `Vec<PeerEntry>` once per message hop. A
//! [`SharedPeerList`] instead holds a refcounted handle into a shared
//! [`PeerListArena`] (a [`plsim_telemetry::BlockArena`] of reusable ≤ 60
//! entry blocks): cloning the message bumps a counter, dropping it returns
//! the block to the arena's free list with its capacity intact. Together
//! with the DES kernel's `EventPool` (which recycles the event slots that
//! carry [`Message`] payloads) the steady-state send/receive loop
//! allocates nothing.
//!
//! Tests and cold paths that have no arena at hand can keep using owned
//! lists: [`SharedPeerList`] also has an inline representation, and
//! `From<PeerList>` / `FromIterator<PeerEntry>` build it directly. The two
//! representations compare equal whenever they resolve to the same
//! entries, so the interned path is a drop-in replacement.

use crate::{PeerEntry, PeerList};
use plsim_telemetry::BlockArena;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A shared, refcounted arena of peer-list blocks.
///
/// One arena is created per world and handed to every peer node and
/// tracker; cloning the handle is an `Rc` bump. The arena is
/// single-threaded by design — the simulation kernel is sequential, and
/// parallel experiment runs build one world (and thus one arena) per job.
#[derive(Clone, Default)]
pub struct PeerListArena {
    inner: Rc<RefCell<BlockArena<PeerEntry>>>,
}

impl PeerListArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        PeerListArena::default()
    }

    /// Interns `candidates` as a new block, keeping the first
    /// [`PeerList::MAX_LEN`] unique entries — the same semantics as
    /// [`PeerList::from_candidates`], without the per-list allocation once
    /// the arena has warmed up.
    pub fn intern<I: IntoIterator<Item = PeerEntry>>(&self, candidates: I) -> SharedPeerList {
        let mut len = 0u16;
        let block = self.inner.borrow_mut().intern_with(|v| {
            for entry in candidates {
                if v.len() >= PeerList::MAX_LEN {
                    break;
                }
                if !v.iter().any(|e| e.node == entry.node) {
                    v.push(entry);
                }
            }
            len = v.len() as u16;
        });
        SharedPeerList {
            repr: Repr::Arena {
                arena: self.clone(),
                block,
                len,
            },
        }
    }

    /// Blocks currently holding a live list (outstanding handles).
    #[must_use]
    pub fn live_blocks(&self) -> usize {
        self.inner.borrow().live_blocks()
    }

    fn same_arena(&self, other: &PeerListArena) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for PeerListArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("PeerListArena")
            .field("live_blocks", &inner.live_blocks())
            .field("free_blocks", &inner.free_blocks())
            .finish()
    }
}

enum Repr {
    /// Owned entries — cold paths and arena-less tests.
    Inline(PeerList),
    /// A refcounted block in a shared arena.
    Arena {
        arena: PeerListArena,
        block: u32,
        len: u16,
    },
}

/// A peer list payload that is either owned ([`PeerList`]) or a cheap
/// refcounted handle into a [`PeerListArena`] — see the module docs.
pub struct SharedPeerList {
    repr: Repr,
}

impl SharedPeerList {
    /// Resolves the entries and passes them to `f`.
    ///
    /// Closure-based access keeps the arena borrow scoped: the interned
    /// representation must release its `RefCell` borrow before control
    /// returns to code that might intern or drop other lists.
    pub fn with<R>(&self, f: impl FnOnce(&[PeerEntry]) -> R) -> R {
        match &self.repr {
            Repr::Inline(list) => f(list.as_slice()),
            Repr::Arena { arena, block, .. } => f(arena.inner.borrow().get(*block)),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline(list) => list.len(),
            Repr::Arena { len, .. } => usize::from(*len),
        }
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the list holds `node`.
    #[must_use]
    pub fn contains(&self, node: plsim_des::NodeId) -> bool {
        self.with(|entries| entries.iter().any(|e| e.node == node))
    }

    /// Copies the entries into an owned [`PeerList`].
    #[must_use]
    pub fn to_list(&self) -> PeerList {
        self.with(|entries| PeerList::from_candidates(entries.iter().copied()))
    }
}

impl Default for SharedPeerList {
    /// An empty inline list (no arena required).
    fn default() -> Self {
        SharedPeerList {
            repr: Repr::Inline(PeerList::new()),
        }
    }
}

impl Clone for SharedPeerList {
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Inline(list) => SharedPeerList {
                repr: Repr::Inline(list.clone()),
            },
            Repr::Arena { arena, block, len } => {
                arena.inner.borrow_mut().retain(*block);
                SharedPeerList {
                    repr: Repr::Arena {
                        arena: arena.clone(),
                        block: *block,
                        len: *len,
                    },
                }
            }
        }
    }
}

impl Drop for SharedPeerList {
    fn drop(&mut self) {
        if let Repr::Arena { arena, block, .. } = &self.repr {
            arena.inner.borrow_mut().release(*block);
        }
    }
}

impl From<PeerList> for SharedPeerList {
    fn from(list: PeerList) -> Self {
        SharedPeerList {
            repr: Repr::Inline(list),
        }
    }
}

impl FromIterator<PeerEntry> for SharedPeerList {
    /// Collects into an owned inline list, truncating to
    /// [`PeerList::MAX_LEN`] unique entries like
    /// [`PeerList::from_candidates`]. Use [`PeerListArena::intern`] on the
    /// hot path instead.
    fn from_iter<I: IntoIterator<Item = PeerEntry>>(iter: I) -> Self {
        SharedPeerList::from(PeerList::from_candidates(iter))
    }
}

impl PartialEq for SharedPeerList {
    /// Representation-independent: two lists are equal when they resolve
    /// to the same entries in the same order.
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Inline(a), Repr::Inline(b)) => a == b,
            (
                Repr::Arena {
                    arena: aa,
                    block: ab,
                    len: al,
                },
                Repr::Arena {
                    arena: ba,
                    block: bb,
                    len: bl,
                },
            ) => {
                if al != bl {
                    return false;
                }
                if aa.same_arena(ba) {
                    let inner = aa.inner.borrow();
                    return ab == bb || inner.get(*ab) == inner.get(*bb);
                }
                aa.inner.borrow().get(*ab) == ba.inner.borrow().get(*bb)
            }
            _ => {
                if self.len() != other.len() {
                    return false;
                }
                self.with(|a| other.with(|b| a == b))
            }
        }
    }
}

impl Eq for SharedPeerList {}

impl fmt::Debug for SharedPeerList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match &self.repr {
            Repr::Inline(_) => "inline",
            Repr::Arena { .. } => "arena",
        };
        self.with(|entries| {
            f.debug_struct("SharedPeerList")
                .field("repr", &tag)
                .field("entries", &entries)
                .finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsim_des::NodeId;
    use std::net::Ipv4Addr;

    fn entry(n: u32) -> PeerEntry {
        PeerEntry::new(NodeId(n), Ipv4Addr::new(58, 0, 0, (n % 250) as u8 + 1))
    }

    #[test]
    fn interned_matches_owned_semantics() {
        let arena = PeerListArena::new();
        let candidates = [entry(1), entry(2), entry(1), entry(3)];
        let shared = arena.intern(candidates);
        let owned = PeerList::from_candidates(candidates);
        assert_eq!(shared.len(), 3);
        shared.with(|s| assert_eq!(s, owned.as_slice()));
        assert_eq!(shared, SharedPeerList::from(owned));
    }

    #[test]
    fn interned_caps_at_max_len() {
        let arena = PeerListArena::new();
        let shared = arena.intern((0..200).map(entry));
        assert_eq!(shared.len(), PeerList::MAX_LEN);
    }

    #[test]
    fn clone_and_drop_recycle_blocks() {
        let arena = PeerListArena::new();
        let a = arena.intern((0..5).map(entry));
        let b = a.clone();
        assert_eq!(arena.live_blocks(), 1);
        drop(a);
        assert_eq!(arena.live_blocks(), 1, "clone keeps the block alive");
        drop(b);
        assert_eq!(arena.live_blocks(), 0);
        // The freed block is reused, so the arena does not grow.
        let _c = arena.intern((0..5).map(entry));
        assert_eq!(
            format!("{arena:?}"),
            "PeerListArena { live_blocks: 1, free_blocks: 0 }"
        );
    }

    #[test]
    fn inline_and_arena_compare_equal() {
        let arena = PeerListArena::new();
        let interned = arena.intern((0..4).map(entry));
        let inline: SharedPeerList = (0..4).map(entry).collect();
        assert_eq!(interned, inline);
        assert_eq!(inline, interned);
        assert!(interned.contains(NodeId(2)));
        assert!(!interned.contains(NodeId(9)));
        let different: SharedPeerList = (0..5).map(entry).collect();
        assert_ne!(interned, different);
    }

    #[test]
    fn to_list_round_trips() {
        let arena = PeerListArena::new();
        let interned = arena.intern((0..7).map(entry));
        let owned = interned.to_list();
        assert_eq!(SharedPeerList::from(owned), interned);
    }
}
