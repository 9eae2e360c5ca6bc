//! Flat neighbor rows: every row of a topology in one compressed-sparse-row
//! store, instead of a heap `Vec` per node.
//!
//! A store holds its rows back to back in one `u32` id buffer, with one
//! offset per row boundary. Writers append rows in node order
//! ([`NeighborRows::push_row`], or the kernel's own append-then-sort), so
//! refilling a store reuses its two buffers and, once they have grown to
//! the population's high-water mark, allocates nothing. A buffer that
//! must grow takes an eighth more than it needs, so its capacity stays
//! within an eighth of the largest fill. The entry count is the buffer's
//! length, so the degree sum is O(1).

/// Sorted neighbor rows in one flat store: row `i` is
/// `ids[offsets[i]..offsets[i + 1]]`.
///
/// # Example
///
/// ```
/// use manet_geom::NeighborRows;
///
/// let mut rows = NeighborRows::default();
/// rows.push_row(&[1, 2]);
/// rows.push_row(&[0]);
/// rows.push_row(&[0]);
/// assert_eq!(rows.len(), 3);
/// assert_eq!(rows.row(0), &[1, 2]);
/// assert_eq!(rows.entries(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborRows {
    /// Row boundaries: `offsets[0] = 0`, then the end of each row.
    offsets: Vec<u32>,
    /// Every row's ids, back to back.
    ids: Vec<u32>,
}

impl Default for NeighborRows {
    fn default() -> Self {
        NeighborRows {
            offsets: vec![0],
            ids: Vec::new(),
        }
    }
}

impl<R: AsRef<[u32]>> FromIterator<R> for NeighborRows {
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Self {
        let mut store = NeighborRows::default();
        for row in rows {
            store.push_row(row.as_ref());
        }
        store
    }
}

impl NeighborRows {
    /// `n` empty rows.
    pub fn empty(n: usize) -> Self {
        NeighborRows {
            offsets: vec![0; n + 1],
            ids: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries over all rows (the degree sum).
    pub fn entries(&self) -> usize {
        self.ids.len()
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Length of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.ids[w[0] as usize..w[1] as usize])
    }

    /// Drops every row, keeping both buffers' capacities.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.ids.clear();
    }

    /// Makes room for `rows` more rows holding `entries` more ids in all.
    /// A buffer that must grow takes an eighth more than it needs.
    pub fn reserve(&mut self, rows: usize, entries: usize) {
        grow(&mut self.offsets, rows);
        grow(&mut self.ids, entries);
    }

    /// Appends a copy of `row` as the next row.
    ///
    /// # Panics
    ///
    /// Panics if the store would exceed `u32::MAX` entries.
    pub fn push_row(&mut self, row: &[u32]) {
        self.reserve(1, row.len());
        self.ids.extend_from_slice(row);
        self.close_row();
    }

    /// Appends `id` to the open row: the one the next
    /// [`close_sorted_row`](Self::close_sorted_row) ends. The caller has
    /// reserved room for the row, so the steady state does not allocate.
    pub(crate) fn push(&mut self, id: u32) {
        self.ids.push(id);
    }

    /// Ends the open row after sorting it and dropping repeated ids.
    pub(crate) fn close_sorted_row(&mut self) {
        let start = *self.offsets.last().expect("offsets start with 0") as usize;
        let row = &mut self.ids[start..];
        row.sort_unstable();
        let mut kept = usize::from(!row.is_empty());
        for k in 1..row.len() {
            if row[k] != row[kept - 1] {
                row[kept] = row[k];
                kept += 1;
            }
        }
        self.ids.truncate(start + kept);
        self.close_row();
    }

    /// Records the end of the open row.
    fn close_row(&mut self) {
        let end = u32::try_from(self.ids.len()).expect("a row store holds at most u32::MAX ids");
        self.offsets.push(end);
    }

    /// Keeps the entry `v` of row `u` exactly when `keep(u, v)`, in place;
    /// rows stay in order.
    pub fn retain(&mut self, mut keep: impl FnMut(u32, u32) -> bool) {
        self.compact(|_, u, v| keep(u, v));
    }

    /// Keeps only the mutual entries: `v` stays in row `u` exactly when
    /// `u` is in row `v`, in place. Rows are filtered in order, each
    /// against the current state of the others: an earlier row already
    /// filtered, a later one not yet. Since the condition is symmetric,
    /// this equals filtering every row against the unfiltered rows.
    ///
    /// Every row must be sorted, and no row may hold its own index.
    pub fn retain_mutual(&mut self) {
        self.compact(|rows, u, v| {
            debug_assert_ne!(u, v, "a row holds its own index");
            rows.row(v as usize).binary_search(&u).is_ok()
        });
    }

    /// Keeps the entry `v` of row `u` exactly when `keep(self, u, v)`,
    /// moving the kept entries down in place. `keep` sees every row
    /// before `u` filtered and closed, and every row after it untouched
    /// at its old bounds; it must not read row `u`, whose span the writes
    /// reuse.
    fn compact(&mut self, mut keep: impl FnMut(&Self, u32, u32) -> bool) {
        let mut kept = 0;
        let mut start = 0;
        for u in 0..self.len() {
            let end = self.offsets[u + 1] as usize;
            for k in start..end {
                // Write every entry and advance past the kept ones: no
                // branch per entry.
                let v = self.ids[k];
                self.ids[kept] = v;
                kept += usize::from(keep(self, u as u32, v));
            }
            start = end;
            self.offsets[u + 1] = kept as u32;
        }
        self.ids.truncate(kept);
    }
}

/// Makes room in `buf` for `more` items past its length: a buffer that
/// must grow is sized an eighth past what it needs, so a refill near its
/// high-water mark does not reallocate.
fn grow(buf: &mut Vec<u32>, more: usize) {
    let need = buf.len() + more;
    if need > buf.capacity() {
        buf.reserve_exact(need + need / 8 - buf.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(rows: &[&[u32]]) -> NeighborRows {
        rows.iter().collect()
    }

    #[test]
    fn rows_read_back_in_order() {
        let rows = store(&[&[1, 2], &[], &[0]]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.entries(), 3);
        assert_eq!(rows.row(1), &[] as &[u32]);
        assert_eq!(rows.row_len(0), 2);
        let all: Vec<&[u32]> = rows.iter().collect();
        assert_eq!(all, vec![&[1, 2][..], &[], &[0]]);
        assert_eq!(rows, store(&[&[1, 2], &[], &[0]]));
        assert_ne!(rows, store(&[&[1], &[2], &[0]]));
    }

    #[test]
    fn empty_and_cleared_stores() {
        assert!(NeighborRows::default().is_empty());
        let n = NeighborRows::empty(4);
        assert_eq!((n.len(), n.entries()), (4, 0));
        assert!(n.iter().all(<[u32]>::is_empty));
        let mut rows = store(&[&[1], &[0]]);
        rows.clear();
        assert_eq!(rows, NeighborRows::default());
    }

    #[test]
    fn sorted_rows_drop_repeats() {
        let mut rows = NeighborRows::default();
        for id in [5, 3, 5, 9, 3] {
            rows.push(id);
        }
        rows.close_sorted_row();
        rows.close_sorted_row();
        rows.push(7);
        rows.close_sorted_row();
        assert_eq!(rows, store(&[&[3, 5, 9], &[], &[7]]));
    }

    #[test]
    fn growth_leaves_an_eighth_of_headroom() {
        let mut rows = NeighborRows::default();
        rows.reserve(7, 800);
        assert_eq!(rows.ids.capacity(), 900);
        assert!(rows.offsets.capacity() >= 9);
        rows.push_row(&[1; 850]);
        assert_eq!(rows.ids.capacity(), 900, "room left: no growth");
        rows.push_row(&[2; 100]);
        assert_eq!(rows.ids.capacity(), 950 + 950 / 8);
    }

    #[test]
    fn retain_filters_each_row_in_place() {
        let mut rows = store(&[&[1, 2, 3], &[0, 2], &[0, 1, 3], &[0, 2]]);
        let alive = [true, false, true, true];
        rows.retain(|u, v| alive[u as usize] && alive[v as usize]);
        assert_eq!(rows, store(&[&[2, 3], &[], &[0, 3], &[0, 2]]));
    }

    #[test]
    fn retain_mutual_keeps_the_links_both_ends_see() {
        // 0 sees 1 but 1 does not see 0; 2 and 3 agree; 3 sees 0 alone.
        let mut rows = store(&[&[1, 2], &[2], &[0, 1, 3], &[0, 2]]);
        let frozen = rows.clone();
        rows.retain_mutual();
        assert_eq!(rows, store(&[&[2], &[2], &[0, 1, 3], &[2]]));
        // The same as filtering against the unfiltered rows.
        let mut expect = NeighborRows::default();
        for (u, row) in frozen.iter().enumerate() {
            let kept: Vec<u32> = row
                .iter()
                .copied()
                .filter(|&v| frozen.row(v as usize).contains(&(u as u32)))
                .collect();
            expect.push_row(&kept);
        }
        assert_eq!(rows, expect);
    }
}
