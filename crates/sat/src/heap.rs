//! Indexed binary max-heap ordering variables by VSIDS activity.
//!
//! Supports decrease/increase-key by tracking each variable's heap
//! position, as required by the CDCL decision heuristic.

use crate::types::Var;

/// A binary max-heap over variables keyed by an external activity array.
///
/// The heap stores variable indices and keeps an inverse index so that
/// membership tests and reordering after activity bumps are O(log n).
#[derive(Clone, Debug, Default)]
pub(crate) struct VarHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `u32::MAX` if absent.
    index: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl VarHeap {
    pub(crate) fn new() -> VarHeap {
        VarHeap::default()
    }

    #[allow(dead_code)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    #[allow(dead_code)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn contains(&self, v: Var) -> bool {
        (v.index() < self.index.len()) && self.index[v.index()] != ABSENT
    }

    /// Reserves room for `n` more variables.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.heap.reserve(n);
        self.index.reserve(n);
    }

    /// Grows the inverse index to accommodate `n` variables.
    pub(crate) fn reserve_vars(&mut self, n: usize) {
        if self.index.len() < n {
            self.index.resize(n, ABSENT);
        }
    }

    pub(crate) fn insert(&mut self, v: Var, activity: &[f64]) {
        self.reserve_vars(v.index() + 1);
        if self.contains(v) {
            return;
        }
        let pos = self.heap.len() as u32;
        self.heap.push(v.0);
        self.index[v.index()] = pos;
        self.sift_up(pos as usize, activity);
    }

    /// Restores heap order for `v` after its activity increased.
    pub(crate) fn decrease(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            let pos = self.index[v.index()] as usize;
            self.sift_up(pos, activity);
        }
    }

    /// Removes and returns the variable with maximum activity.
    pub(crate) fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("heap non-empty");
        self.index[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(Var(top))
    }

    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        let item = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) >> 1;
            let parent_item = self.heap[parent];
            if activity[item as usize] <= activity[parent_item as usize] {
                break;
            }
            self.heap[pos] = parent_item;
            self.index[parent_item as usize] = pos as u32;
            pos = parent;
        }
        self.heap[pos] = item;
        self.index[item as usize] = pos as u32;
    }

    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        let item = self.heap[pos];
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len
                && activity[self.heap[right] as usize] > activity[self.heap[left] as usize]
            {
                right
            } else {
                left
            };
            let child_item = self.heap[child];
            if activity[child_item as usize] <= activity[item as usize] {
                break;
            }
            self.heap[pos] = child_item;
            self.index[child_item as usize] = pos as u32;
            pos = child;
        }
        self.heap[pos] = item;
        self.index[item as usize] = pos as u32;
    }

    /// Rebuilds the heap from scratch (e.g. after a global rescale).
    #[allow(dead_code)]
    pub(crate) fn rebuild(&mut self, activity: &[f64]) {
        let items: Vec<u32> = self.heap.drain(..).collect();
        for i in &items {
            self.index[*i as usize] = ABSENT;
        }
        for i in items {
            self.insert(Var(i), activity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(heap: &mut VarHeap, act: &[f64]) -> Vec<usize> {
        let mut out = Vec::new();
        while let Some(v) = heap.pop(act) {
            out.push(v.index());
        }
        out
    }

    #[test]
    fn pops_in_descending_activity_order() {
        let act = [1.0, 5.0, 3.0, 4.0, 2.0];
        let mut heap = VarHeap::new();
        for i in 0..5 {
            heap.insert(Var::from_index(i), &act);
        }
        assert_eq!(drain(&mut heap, &act), vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn decrease_moves_bumped_variable_up() {
        let mut act = [1.0, 2.0, 3.0];
        let mut heap = VarHeap::new();
        for i in 0..3 {
            heap.insert(Var::from_index(i), &act);
        }
        act[0] = 10.0;
        heap.decrease(Var::from_index(0), &act);
        assert_eq!(heap.pop(&act), Some(Var::from_index(0)));
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let act = [1.0];
        let mut heap = VarHeap::new();
        heap.insert(Var::from_index(0), &act);
        heap.insert(Var::from_index(0), &act);
        assert_eq!(heap.len(), 1);
        assert!(heap.contains(Var::from_index(0)));
    }

    #[test]
    fn empty_heap_pops_none() {
        let mut heap = VarHeap::new();
        assert!(heap.is_empty());
        assert_eq!(heap.pop(&[]), None);
    }

    #[test]
    fn rebuild_preserves_content() {
        let act = [4.0, 1.0, 9.0, 2.0];
        let mut heap = VarHeap::new();
        for i in 0..4 {
            heap.insert(Var::from_index(i), &act);
        }
        heap.rebuild(&act);
        assert_eq!(drain(&mut heap, &act), vec![2, 0, 3, 1]);
    }
}
