//! The buffer pool's eviction policy: SIEVE (Zhang et al., NSDI '24).
//!
//! The replacer tracks *frame indices* (slots in the buffer pool), not
//! page ids: the pool owns the page↔frame mapping and tells the replacer
//! when a frame is filled, touched, or dropped. `evict` both chooses a
//! victim and forgets it. Its node table grows to the highest frame index
//! it is given, as the pool's frame table grows with the images it holds.
//!
//! SIEVE keeps frames in FIFO insertion order with a lazily retreating
//! hand that spares visited frames in place: a hit only sets a bit, with
//! no reordering (unlike LRU) and no promotion to the head (unlike second
//! chance).

#[derive(Debug)]
pub struct SieveReplacer {
    nodes: Vec<SieveNode>,
    /// Most recently inserted frame.
    head: Option<usize>,
    /// Oldest frame.
    tail: Option<usize>,
    /// Next eviction candidate; `None` restarts from the tail.
    hand: Option<usize>,
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct SieveNode {
    prev: Option<usize>, // toward head (newer)
    next: Option<usize>, // toward tail (older)
    visited: bool,
    present: bool,
}

impl SieveReplacer {
    /// What the replacer keeps per frame.
    pub(crate) const NODE_BYTES: usize = size_of::<SieveNode>();

    /// A replacer with room for `capacity` frames before its table grows.
    pub fn new(capacity: usize) -> Self {
        SieveReplacer {
            nodes: vec![SieveNode::default(); capacity.max(1)],
            head: None,
            tail: None,
            hand: None,
            len: 0,
        }
    }

    fn unlink(&mut self, frame: usize) {
        let node = self.nodes[frame];
        match node.prev {
            Some(p) => self.nodes[p].next = node.next,
            None => self.head = node.next,
        }
        match node.next {
            Some(n) => self.nodes[n].prev = node.prev,
            None => self.tail = node.prev,
        }
        if self.hand == Some(frame) {
            self.hand = node.prev;
        }
        self.nodes[frame] = SieveNode::default();
        self.len -= 1;
    }

    /// A frame has been filled with a new page.
    pub fn insert(&mut self, frame: usize) {
        if frame >= self.nodes.len() {
            self.nodes.resize(frame + 1, SieveNode::default());
        }
        debug_assert!(!self.nodes[frame].present);
        self.nodes[frame] = SieveNode {
            prev: None,
            next: self.head,
            visited: false,
            present: true,
        };
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(frame);
        }
        self.head = Some(frame);
        if self.tail.is_none() {
            self.tail = Some(frame);
        }
        self.len += 1;
    }

    /// A tracked frame has been accessed (hit).
    pub fn record_access(&mut self, frame: usize) {
        if self.nodes[frame].present {
            self.nodes[frame].visited = true;
        }
    }

    /// Choose a victim frame and stop tracking it.
    pub fn evict(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // The hand retreats from tail toward head, clearing visited bits;
        // it wraps back to the tail at the head. Bounded by 2·len steps.
        let mut cur = self.hand.or(self.tail)?;
        for _ in 0..2 * self.len + 1 {
            if self.nodes[cur].visited {
                self.nodes[cur].visited = false;
                cur = match self.nodes[cur].prev {
                    Some(p) => p,
                    None => self.tail.unwrap(),
                };
            } else {
                self.hand = self.nodes[cur].prev;
                self.unlink(cur);
                return Some(cur);
            }
        }
        None
    }

    /// Stop tracking a frame (its page was freed or flushed away).
    pub fn remove(&mut self, frame: usize) {
        if self.nodes[frame].present {
            self.unlink(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sieve_spares_visited_in_place() {
        let mut r = SieveReplacer::new(4);
        r.insert(0); // oldest
        r.insert(1);
        r.insert(2); // newest
        r.record_access(0);
        // Hand starts at tail (0): visited -> cleared, move to 1: evict.
        assert_eq!(r.evict(), Some(1));
        // The hand kept moving toward the head, so 2 goes before the
        // cleared-but-spared 0 comes around again.
        assert_eq!(r.evict(), Some(2));
        assert_eq!(r.evict(), Some(0));
        assert_eq!(r.evict(), None);
    }

    #[test]
    fn remove_mid_structure_is_safe() {
        let mut r = SieveReplacer::new(4);
        r.insert(0);
        r.insert(1);
        r.insert(2);
        r.remove(1);
        assert_eq!(r.evict(), Some(0));
        assert_eq!(r.evict(), Some(2));
        assert_eq!(r.evict(), None);
    }

    /// SIEVE as the paper states it, over a plain list: `order` holds the
    /// tracked frames oldest first, and the hand is a frame id (`None`:
    /// start from the oldest). It counts the branches the model test must
    /// reach.
    #[derive(Default)]
    struct Model {
        order: Vec<(usize, bool)>,
        hand: Option<usize>,
        wraps: usize,
        hand_removals: usize,
        all_visited_sweeps: usize,
    }

    impl Model {
        fn position(&self, frame: usize) -> Option<usize> {
            self.order.iter().position(|&(f, _)| f == frame)
        }

        /// The frame inserted just after the one at `at`, if any.
        fn newer(&self, at: usize) -> Option<usize> {
            self.order.get(at + 1).map(|&(f, _)| f)
        }

        fn evict(&mut self) -> Option<usize> {
            if self.order.is_empty() {
                return None;
            }
            if self.order.iter().all(|&(_, visited)| visited) {
                self.all_visited_sweeps += 1;
            }
            let mut at = self.hand.and_then(|f| self.position(f)).unwrap_or(0);
            while self.order[at].1 {
                self.order[at].1 = false;
                at += 1;
                if at == self.order.len() {
                    self.wraps += 1;
                    at = 0;
                }
            }
            self.hand = self.newer(at);
            Some(self.order.remove(at).0)
        }

        fn remove(&mut self, frame: usize) {
            if let Some(at) = self.position(frame) {
                if self.hand == Some(frame) {
                    self.hand_removals += 1;
                    self.hand = self.newer(at);
                }
                self.order.remove(at);
            }
        }
    }

    /// Random `insert`, `record_access`, `remove` and `evict` sequences on
    /// pools of 1–8 frames, checked victim by victim against [`Model`].
    /// The generator cases that reach each branch (counts over the 2 000
    /// cases):
    ///
    /// * the hand wrapping from head to tail (1 527): `record_access` is
    ///   drawn as often as `insert`, on any frame, so an `evict` often
    ///   finds the frames from the hand to the head all visited;
    /// * removing the frame under the hand (384): `remove` draws any
    ///   frame, and after an `evict` the hand rests on the victim's newer
    ///   neighbour, which on a pool of 1–8 frames `remove` often picks;
    /// * a sweep where every frame was visited (1 407): the same
    ///   `record_access` draws, on pools small enough that each frame gets
    ///   one between two evictions.
    #[test]
    fn sieve_matches_model() {
        let mut state = 0x5EED_51E7_E000_0001u64;
        let mut next = |n: u64| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as usize
        };
        let mut model = Model::default();
        for case in 0..2_000 {
            let capacity = 1 + next(8);
            let mut r = SieveReplacer::new(capacity);
            model.order.clear();
            model.hand = None;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for _ in 0..next(60) {
                let frame = next(capacity as u64);
                match next(8) {
                    0..=2 if model.position(frame).is_none() => {
                        r.insert(frame);
                        model.order.push((frame, false));
                    }
                    0..=2 => {}
                    3..=5 => {
                        r.record_access(frame);
                        if let Some(at) = model.position(frame) {
                            model.order[at].1 = true;
                        }
                    }
                    6 => {
                        r.remove(frame);
                        model.remove(frame);
                    }
                    _ => {
                        got.push(r.evict());
                        want.push(model.evict());
                    }
                }
            }
            // Drain both, through the first `None`.
            while want.last() != Some(&None) {
                got.push(r.evict());
                want.push(model.evict());
            }
            assert_eq!(got, want, "case {case}");
        }
        assert!(model.wraps > 0, "no hand wrapped from head to tail");
        assert!(
            model.hand_removals > 0,
            "no remove of the frame under the hand"
        );
        assert!(
            model.all_visited_sweeps > 0,
            "no sweep over only visited frames"
        );
    }
}
