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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_enforced_oldest_first() {
        let mut cache = BoundedCache::new(2);
        for key in 0..3u64 {
            cache.insert((key, 0), key);
        }
        assert_eq!(cache.map.len(), 2);
        // The oldest entry was evicted: asking for it again is a miss, while
        // the newest is still a hit.
        assert_eq!(cache.get(&(2, 0)), Some(2));
        assert_eq!(cache.get(&(0, 0)), None);
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn capacity_of_zero_is_clamped_to_one_entry() {
        let mut cache = BoundedCache::new(0);
        cache.insert((0, 0), "old");
        cache.insert((1, 0), "new");
        assert_eq!(cache.map.len(), 1);
        assert_eq!(cache.get(&(1, 0)), Some("new"));
    }
}
