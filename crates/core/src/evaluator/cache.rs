//! The bounded FIFO cache behind both evaluator caches: the result cache
//! (`(assignment, fidelity)` → `(loss, cost)`) and the FE-transform cache
//! (`(fe sub-assignment, training-data key)` → `Arc<FeTransformed>`).

use std::collections::{HashMap, VecDeque};

/// FIFO-bounded cache with hit/miss accounting.
pub(super) struct BoundedCache<V: Clone> {
    pub(super) map: HashMap<(u64, u64), V>,
    order: VecDeque<(u64, u64)>,
    capacity: usize,
    pub(super) hits: u64,
    pub(super) misses: u64,
}

impl<V: Clone> BoundedCache<V> {
    pub(super) fn new(capacity: usize) -> BoundedCache<V> {
        BoundedCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    pub(super) fn get(&mut self, key: &(u64, u64)) -> Option<V> {
        match self.map.get(key).cloned() {
            Some(v) => {
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    pub(super) fn insert(&mut self, key: (u64, u64), value: V) {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
            while self.map.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                } else {
                    break;
                }
            }
        }
    }

    pub(super) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.map.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            } else {
                break;
            }
        }
    }
}
