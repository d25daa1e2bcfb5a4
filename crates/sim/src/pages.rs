//! Copy-on-write paged word storage: the one storage type of the
//! register files, the LDS and global memory.
//!
//! A [`Pages`] store holds its words in fixed [`PAGE_WORDS`]-word pages.
//! Each page is in one of three states:
//!
//! * **zero** — all words zero, no allocation. A fresh store and a
//!   [reset](Pages::reset) store hold only zero pages.
//! * **shared** — behind an [`Arc`], possibly held by other stores too
//!   (checkpoints, the devices restored from them). Never written.
//! * **owned** — behind a [`Box`] this store alone holds, written in
//!   place.
//!
//! A write to a zero or shared page first copies it into an owned page
//! (copy on write), and only that page. Cloning a store clones the
//! handles of its zero and shared pages and copies each owned page into
//! a new shared page of the clone, so every page of a clone is zero or
//! shared. A checkpoint is such a clone; restoring it clones it again,
//! which is one handle per page whatever the device holds, and the
//! replay then copies only the pages it writes.
//!
//! [Freezing](Pages::freeze) a store turns its owned pages into shared
//! ones in place. A clone taken right after shares every page with the
//! store, so two checkpoints taken from one run share each page the run
//! did not write between them; the store copies a frozen page again
//! only on its next write to it.
//!
//! Writes never touch a reference count: only the owner of a `Box` can
//! write it, and no code writes through an `Arc`. That is also the
//! exactness argument: a page is copied before its first write, so no
//! store ever sees another's write.

use std::ops::Range;
use std::sync::Arc;

/// Words per page: 1,024 words, 4 KiB.
///
/// Chosen by measurement against 256-word (1 KiB) pages on the HD 7970
/// vectoradd RF campaign (480 injections, no pruning or batching, one
/// worker, 2-core Xeon, six alternating runs): 4 KiB pages restore in
/// 192 µs and the campaign takes 1.38 s; 1 KiB pages copy four times as
/// many pages (375,563 against 95,469), restore in 257 µs (four times
/// the handles to clone and drop) and take 1.46 s.
pub const PAGE_WORDS: usize = 1024;

const PAGE_SHIFT: u32 = PAGE_WORDS.trailing_zeros();
const PAGE_MASK: usize = PAGE_WORDS - 1;

type Words = [u32; PAGE_WORDS];

/// One page of a [`Pages`] store.
enum Page {
    /// All zeros; no allocation.
    Zero,
    /// Possibly held by other stores; copied before a write.
    Shared(Arc<Words>),
    /// Held by this store alone; written in place.
    Owned(Box<Words>),
}

impl Clone for Page {
    /// An owned page is copied into a shared one: the clone must not
    /// see the source's later in-place writes.
    fn clone(&self) -> Self {
        match self {
            Page::Zero => Page::Zero,
            Page::Shared(words) => Page::Shared(Arc::clone(words)),
            Page::Owned(words) => Page::Shared(Arc::new(**words)),
        }
    }
}

/// A fixed-length array of 32-bit words in copy-on-write pages.
///
/// # Example
/// ```
/// use simt_sim::pages::Pages;
/// let mut a = Pages::new(4096);
/// a.set(7, 42); // copies the zero page into an owned one
/// let b = a.clone(); // b shares a copy of that page, nothing else
/// a.set(7, 43); // a's own page: written in place
/// let mut c = b.clone(); // every page of c is shared with b
/// c.set(7, 44); // copies the one page it writes
/// assert_eq!((a.get(7), b.get(7), c.get(7)), (43, 42, 44));
/// assert_eq!((a.page_copies(), c.page_copies()), (1, 2));
/// assert_eq!(a.get_checked(4096), None);
/// ```
#[derive(Clone)]
pub struct Pages {
    pages: Vec<Page>,
    len: usize,
    /// Zero or shared pages copied on a first write, carried through
    /// clones.
    copies: u64,
}

impl Pages {
    /// A store of `len` zero words.
    pub fn new(len: usize) -> Self {
        let mut p = Pages {
            pages: Vec::new(),
            len: 0,
            copies: 0,
        };
        p.grow(len);
        p
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Word `i`.
    ///
    /// Callers index inside the store by construction; an index past
    /// the end panics when it is also past the last page.
    #[inline(always)]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len, "word {i} of {}", self.len);
        match &self.pages[i >> PAGE_SHIFT] {
            Page::Owned(words) => words[i & PAGE_MASK],
            Page::Shared(words) => words[i & PAGE_MASK],
            Page::Zero => 0,
        }
    }

    /// Word `i`, or `None` past the end (a fault site off the structure).
    pub fn get_checked(&self, i: usize) -> Option<u32> {
        (i < self.len).then(|| self.get(i))
    }

    /// Sets word `i`, first copying its page into an owned one unless
    /// this store owns it already (a zero stored into a zero page
    /// changes nothing and copies nothing).
    #[inline(always)]
    pub fn set(&mut self, i: usize, value: u32) {
        debug_assert!(i < self.len, "word {i} of {}", self.len);
        if let Some(words) = self.page_mut(i >> PAGE_SHIFT, || value == 0) {
            words[i & PAGE_MASK] = value;
        }
    }

    /// Copies words `start..start + out.len()` into `out`, one page
    /// slice at a time: the row read of a warp register (a row never
    /// crosses a page) and the bulk read of a host copy.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the last page.
    pub fn read_row(&self, start: usize, out: &mut [u32]) {
        debug_assert!(
            start + out.len() <= self.len,
            "words {start}.. of {}",
            self.len
        );
        for (page, off, range) in pieces(start, out.len()) {
            let dst = &mut out[range];
            match &self.pages[page] {
                Page::Owned(words) => dst.copy_from_slice(&words[off..off + dst.len()]),
                Page::Shared(words) => dst.copy_from_slice(&words[off..off + dst.len()]),
                Page::Zero => dst.fill(0),
            }
        }
    }

    /// Sets word `start + l` to `row[l]` for every lane `l` in `lanes`:
    /// the row write of a warp register, one
    /// [`write_slice`](Pages::write_slice) per run of consecutive lanes.
    /// Each page is copied on write exactly as the [`set`](Pages::set)
    /// loop over the same lanes would: a zero page written only zeros
    /// copies nothing, and a zero or shared page is copied once.
    ///
    /// # Panics
    ///
    /// Panics if a lane indexes past `row` or past the last page.
    pub fn write_row(&mut self, start: usize, row: &[u32], lanes: u64) {
        for (l, n) in lane_runs(lanes) {
            self.write_slice(start + l, &row[l..l + n]);
        }
    }

    /// Gathers word `words[l]` into `out[l]` for every lane `l` in
    /// `lanes`: the reads of a warp's loads. Lanes that name consecutive
    /// words are one [`read_row`](Pages::read_row).
    ///
    /// # Panics
    ///
    /// Panics if a lane indexes past `words` or `out`, or a word is past
    /// the last page.
    pub fn read_lanes(&self, words: &[u32], lanes: u64, out: &mut [u32]) {
        match row_start(words, lanes) {
            Some(start) => {
                let (first, last) = (lanes.trailing_zeros(), 63 - lanes.leading_zeros());
                let (first, last) = (first as usize, last as usize);
                self.read_row(start + first, &mut out[first..=last]);
            }
            None => {
                for l in lane_bits(lanes) {
                    out[l] = self.get(words[l] as usize);
                }
            }
        }
    }

    /// Sets word `words[l]` to `row[l]` for every lane `l` in `lanes`, in
    /// lane order, so the last of two lanes that name one word wins: the
    /// writes of a warp's stores. Lanes that name consecutive words are
    /// one [`write_row`](Pages::write_row); either way each page is
    /// copied on write as the [`set`](Pages::set) loop would.
    ///
    /// # Panics
    ///
    /// Panics if a lane indexes past `words` or `row`, or a word is past
    /// the last page.
    pub fn write_lanes(&mut self, words: &[u32], row: &[u32], lanes: u64) {
        match row_start(words, lanes) {
            Some(start) => self.write_row(start, row, lanes),
            None => {
                for l in lane_bits(lanes) {
                    self.set(words[l] as usize, row[l]);
                }
            }
        }
    }

    /// Copies `data` into words `start..start + data.len()`, one page
    /// slice at a time: a host copy, and each run of a row write. A page
    /// is copied on write as by the [`set`](Pages::set) loop: not at
    /// all for a zero page written only zeros, else once.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the last page.
    pub fn write_slice(&mut self, start: usize, data: &[u32]) {
        debug_assert!(
            start + data.len() <= self.len,
            "words {start}.. of {}",
            self.len
        );
        for (page, off, range) in pieces(start, data.len()) {
            let src = &data[range];
            if let Some(words) = self.page_mut(page, || src.iter().all(|&w| w == 0)) {
                words[off..off + src.len()].copy_from_slice(src);
            }
        }
    }

    /// The words of page `p` to write in place, copying a zero or shared
    /// page first; `None` for a zero page when `zeros()` says that every
    /// word to write is zero (nothing changes, nothing is copied).
    #[inline(always)]
    fn page_mut(&mut self, p: usize, zeros: impl FnOnce() -> bool) -> Option<&mut Words> {
        let page = &mut self.pages[p];
        match page {
            Page::Owned(words) => Some(words),
            Page::Zero if zeros() => None,
            _ => {
                self.copies += 1;
                Some(copy_on_write(page))
            }
        }
    }

    /// Turns every owned page into a shared one, changing no word: the
    /// store then holds only zero and shared pages, exactly as if it
    /// had been restored from a clone of itself. A clone taken next
    /// shares all of its pages instead of copying the owned ones.
    pub fn freeze(&mut self) {
        for page in &mut self.pages {
            *page = match std::mem::replace(page, Page::Zero) {
                Page::Owned(words) => Page::Shared(Arc::from(words)),
                other => other,
            };
        }
    }

    /// Zeroes every word: every page becomes a zero page.
    pub fn reset(&mut self) {
        self.pages.fill_with(|| Page::Zero);
    }

    /// Extends the store with zero words up to `len` (never shrinks).
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.pages
                .resize_with(len.div_ceil(PAGE_WORDS), || Page::Zero);
            self.len = len;
        }
    }

    /// Zero or shared pages this store (and the stores it was cloned
    /// from) copied on a first write.
    pub fn page_copies(&self) -> u64 {
        self.copies
    }

    /// The words in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

/// The pieces of words `start..start + len` that fall on one page each,
/// in order: `(page, offset in the page, range within the len words)`.
fn pieces(start: usize, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let (i, at) = (start + done, done);
            let off = i & PAGE_MASK;
            done += (PAGE_WORDS - off).min(len - done);
            (i >> PAGE_SHIFT, off, at..done)
        })
    })
}

/// The set lanes of a mask, lowest first, as indices.
fn lane_bits(lanes: u64) -> impl Iterator<Item = usize> {
    crate::warp::lanes(lanes).map(|l| l as usize)
}

/// The word `start` of a row when every lane `l` of `lanes` names word
/// `start + l`; `None` when they do not, or `lanes` is empty.
fn row_start(words: &[u32], lanes: u64) -> Option<usize> {
    let first = lanes.trailing_zeros() as usize;
    let start = (*words.get(first)? as usize).checked_sub(first)?;
    lane_bits(lanes)
        .all(|l| words[l] as usize == start + l)
        .then_some(start)
}

/// The runs of consecutive set bits of a lane mask as `(first lane,
/// lanes)`, lowest first: a full row is one run.
fn lane_runs(mut mask: u64) -> impl Iterator<Item = (usize, usize)> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let first = mask.trailing_zeros();
            let n = (!(mask >> first)).trailing_zeros();
            // Adding the lowest set bit carries through its run.
            mask &= mask.wrapping_add(mask & mask.wrapping_neg());
            (first as usize, n as usize)
        })
    })
}

/// Replaces a zero or shared page with an owned copy of its words and
/// returns them.
#[cold]
fn copy_on_write(page: &mut Page) -> &mut Words {
    let words = match page {
        Page::Zero => Box::new([0; PAGE_WORDS]),
        Page::Shared(words) => Box::new(**words),
        Page::Owned(_) => unreachable!("an owned page is written in place"),
    };
    *page = Page::Owned(words);
    match page {
        Page::Owned(words) => words,
        _ => unreachable!("the page was just made owned"),
    }
}

impl std::fmt::Debug for Pages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pages")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .field("copies", &self.copies)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether page `p` of `a` and `b` is one shared allocation.
    fn shared(a: &Pages, b: &Pages, p: usize) -> bool {
        match (&a.pages[p], &b.pages[p]) {
            (Page::Shared(x), Page::Shared(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn a_write_to_a_shared_page_changes_only_the_writer() {
        let mut src = Pages::new(3 * PAGE_WORDS);
        for i in 0..src.len() {
            src.set(i, i as u32);
        }
        // A checkpoint and two devices restored from it.
        let ckpt = src.clone();
        let (mut a, mut b) = (ckpt.clone(), ckpt.clone());
        let w = PAGE_WORDS + 5;
        b.set(w, 0xdead);
        a.set(w, 0xbeef);
        src.set(w, 0xf00d);
        assert_eq!(a.get(w), 0xbeef);
        assert_eq!(b.get(w), 0xdead);
        assert_eq!(src.get(w), 0xf00d);
        assert_eq!(ckpt.get(w), w as u32);
        for i in (0..a.len()).filter(|&i| i != w) {
            let want = (i as u32, i as u32, i as u32, i as u32);
            assert_eq!((a.get(i), b.get(i), ckpt.get(i), src.get(i)), want);
        }
        // The two unwritten pages are still shared by all three clones.
        for p in [0, 2] {
            assert!(shared(&a, &ckpt, p) && shared(&b, &ckpt, p));
        }
        assert!(!shared(&a, &ckpt, 1) && !shared(&b, &ckpt, 1));
    }

    #[test]
    fn copies_count_only_first_writes_to_zero_or_shared_pages() {
        let mut a = Pages::new(2 * PAGE_WORDS);
        a.set(0, 1);
        a.set(1, 2);
        assert_eq!(a.page_copies(), 1, "the zero page, once");
        let mut restored = a.clone();
        restored.set(2, 3);
        restored.set(3, 4);
        assert_eq!(restored.page_copies(), 2, "the shared page, once");
        a.set(2, 5);
        assert_eq!(a.page_copies(), 1, "an owned page is written in place");
    }

    #[test]
    fn reset_drops_every_page_to_the_zero_page() {
        let mut a = Pages::new(PAGE_WORDS + 3);
        a.set(PAGE_WORDS + 2, 9);
        let snap = a.clone();
        a.reset();
        assert!(a.iter().all(|w| w == 0));
        assert_eq!(snap.get(PAGE_WORDS + 2), 9);
        assert!(a.pages.iter().all(|p| matches!(p, Page::Zero)));
        a.set(3, 0);
        assert!(
            matches!(a.pages[0], Page::Zero),
            "a stored zero copies nothing"
        );
        assert_eq!(a.page_copies(), 1);
    }

    #[test]
    fn freeze_shares_every_page_with_the_next_clone() {
        let mut live = Pages::new(3 * PAGE_WORDS);
        live.set(1, 1);
        live.set(PAGE_WORDS + 1, 2);
        live.freeze();
        let first = live.clone();
        assert!((0..2).all(|p| shared(&live, &first, p)));
        // The run goes on: one page written, then the next checkpoint.
        live.set(PAGE_WORDS + 1, 3);
        assert_eq!(live.page_copies(), 3, "a frozen page is copied on write");
        live.freeze();
        let second = live.clone();
        assert!(shared(&first, &second, 0), "the unwritten page is shared");
        assert!(!shared(&first, &second, 1));
        assert!(matches!(second.pages[2], Page::Zero));
        let words = |p: &Pages| [p.get(1), p.get(PAGE_WORDS + 1)];
        assert_eq!((words(&first), words(&second)), ([1, 2], [1, 3]));
    }

    /// A store of four pages: page 0 zero, page 1 shared with a clone,
    /// page 2 owned, page 3 zero; the clone is returned to keep page 1
    /// shared.
    fn mixed() -> (Pages, Pages) {
        let mut a = Pages::new(4 * PAGE_WORDS);
        for i in PAGE_WORDS..3 * PAGE_WORDS {
            a.set(i, i as u32);
        }
        a.freeze();
        let held = a.clone();
        a.set(2 * PAGE_WORDS, 7);
        (a, held)
    }

    /// Applies `writes` (`(start, row, lanes)`) once through `write_row`
    /// and once through the `set` loop, and checks that the words, the
    /// page states and the copy counts agree.
    fn rows_match_sets(writes: &[(usize, Vec<u32>, u64)]) {
        let ((mut rows, _a), (mut sets, _b)) = (mixed(), mixed());
        for (start, row, lanes) in writes {
            rows.write_row(*start, row, *lanes);
            for l in (0..64).filter(|l| lanes >> l & 1 == 1) {
                sets.set(start + l, row[l]);
            }
        }
        assert!(rows.iter().eq(sets.iter()));
        assert_eq!(rows.page_copies(), sets.page_copies());
        let kinds = |p: &Pages| {
            p.pages
                .iter()
                .map(std::mem::discriminant)
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(&rows), kinds(&sets));
    }

    #[test]
    fn a_row_write_copies_what_the_set_loop_copies() {
        let row: Vec<u32> = (1..=64).collect();
        let zeros = vec![0; 64];
        let mut half = zeros.clone();
        half[40] = 9;
        rows_match_sets(&[(0, zeros.clone(), u64::MAX)]); // zeros into a zero page
        rows_match_sets(&[(64, half.clone(), 0xff)]); // masked-out nonzero lane
        rows_match_sets(&[(64, half, u64::MAX)]); // one nonzero lane
        rows_match_sets(&[(PAGE_WORDS, zeros, 1 << 3)]); // a zero into a shared page
        rows_match_sets(&[(PAGE_WORDS + 64, row.clone(), 0xf0f0)]);
        rows_match_sets(&[(2 * PAGE_WORDS, row.clone(), u64::MAX)]); // owned
        rows_match_sets(&[
            (3 * PAGE_WORDS, row.clone(), 1),
            (3 * PAGE_WORDS + 64, row.clone(), 1 << 63), // the page is owned now
        ]);
        // A row across a page boundary writes and copies both pages.
        rows_match_sets(&[(PAGE_WORDS - 32, row.clone(), u64::MAX)]);
        rows_match_sets(&[(2 * PAGE_WORDS - 8, row, 0x1ff)]);
    }

    #[test]
    fn a_lane_scatter_and_gather_match_the_per_word_loops() {
        let row: Vec<u32> = (1..=64).collect();
        // One row across a page boundary, a stride over all four pages,
        // and the row with two lanes on one word (the later lane wins).
        let consecutive: Vec<u32> = (0..64).map(|l| (PAGE_WORDS - 8 + l) as u32).collect();
        let strided: Vec<u32> = (0..64).map(|l| (l * 61) as u32).collect();
        let mut twice = consecutive.clone();
        twice[5] = twice[9];
        for words in [consecutive, strided, twice] {
            for lanes in [u64::MAX, 0x0ff0_0000_0000_ff01] {
                let ((mut scattered, _a), (mut sets, _b)) = (mixed(), mixed());
                scattered.write_lanes(&words, &row, lanes);
                for l in (0..64).filter(|l| lanes >> l & 1 == 1) {
                    sets.set(words[l] as usize, row[l]);
                }
                assert!(scattered.iter().eq(sets.iter()));
                assert_eq!(scattered.page_copies(), sets.page_copies());
                let mut out = [0; 64];
                scattered.read_lanes(&words, lanes, &mut out);
                for l in (0..64).filter(|l| lanes >> l & 1 == 1) {
                    assert_eq!(out[l], sets.get(words[l] as usize), "lane {l}");
                }
            }
        }
    }

    #[test]
    fn slice_copies_cross_pages_and_copy_as_the_set_loop() {
        for (start, len) in [(0, 10), (PAGE_WORDS - 3, 6), (5, 3 * PAGE_WORDS + 2)] {
            for fill in [0u32, 1] {
                let data: Vec<u32> = (0..len).map(|i| fill * (i as u32 + 1)).collect();
                let ((mut bulk, _a), (mut sets, _b)) = (mixed(), mixed());
                bulk.write_slice(start, &data);
                for (i, &w) in data.iter().enumerate() {
                    sets.set(start + i, w);
                }
                assert!(bulk.iter().eq(sets.iter()), "{start}+{len}");
                assert_eq!(bulk.page_copies(), sets.page_copies(), "{start}+{len}");
                let mut out = vec![u32::MAX; len];
                bulk.read_row(start, &mut out);
                assert_eq!(out, data);
            }
        }
        // A read across zero, shared and owned pages.
        let (a, _held) = mixed();
        let mut out = vec![u32::MAX; 2 * PAGE_WORDS + 2];
        a.read_row(PAGE_WORDS - 1, &mut out);
        assert!(out
            .iter()
            .zip(PAGE_WORDS - 1..)
            .all(|(&w, i)| w == a.get(i)));
        assert_eq!(
            (out[0], out[1], out[PAGE_WORDS + 1]),
            (0, PAGE_WORDS as u32, 7)
        );
    }

    #[test]
    fn grow_and_checked_reads_respect_the_length() {
        let mut a = Pages::new(5);
        assert_eq!(a.get_checked(5), None);
        a.grow(PAGE_WORDS + 1);
        a.set(PAGE_WORDS, 7);
        assert_eq!(a.get_checked(PAGE_WORDS), Some(7));
        assert_eq!(a.get_checked(PAGE_WORDS + 1), None);
        a.grow(3);
        assert_eq!(a.len(), PAGE_WORDS + 1, "grow never shrinks");
        assert_eq!(a.iter().count(), PAGE_WORDS + 1);
        assert!(Pages::new(0).is_empty());
    }
}
