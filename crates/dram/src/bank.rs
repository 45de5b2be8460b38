//! Per-bank state: the open-row buffer and disturbance accounting.
//!
//! Disturbance is tracked per victim row with *lazy refresh windows*: each
//! row is refreshed on a fixed schedule (its refresh group fires every
//! `tREFI * refresh_groups` nanoseconds at a row-specific phase), so instead
//! of ticking refresh commands, each disturbance update first checks whether
//! the row's refresh window advanced since the last update and resets the
//! counter if so. This is exact and O(1) per update.
//!
//! A bulk hammer call lifts its victim rows out of the bank map into a
//! [`VictimTable`] for the call's duration and writes them back at the end.

use std::sync::Arc;

use perf::FastMap;

use crate::cells::RowEval;
use crate::timing::{DramTiming, Nanos};

/// Disturbance accumulated by one victim row within its current window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Disturbance {
    units: u64,
    window: u64,
}

impl Disturbance {
    /// Adds `units` in refresh window `window`, first resetting the counter
    /// if the row was refreshed since the last update.
    fn add(&mut self, units: u64, window: u64) -> DisturbDelta {
        if self.window != window {
            self.units = 0;
            self.window = window;
        }
        let old_units = self.units;
        self.units = self.units.saturating_add(units);
        DisturbDelta {
            old_units,
            new_units: self.units,
        }
    }

    /// The counter as seen in refresh window `window` (0 once refreshed).
    fn level(&self, window: u64) -> u64 {
        if self.window == window {
            self.units
        } else {
            0
        }
    }
}

/// Result of adding disturbance to a row: the counter before and after, both
/// within the row's *current* refresh window.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DisturbDelta {
    pub old_units: u64,
    pub new_units: u64,
}

/// State of a single DRAM bank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BankState {
    open_row: Option<u32>,
    acts: u64,
    disturbance: FastMap<u32, Disturbance>,
}

/// Phase (ns offset within the refresh window) at which `row` is refreshed.
fn refresh_phase(row: u32, timing: &DramTiming) -> Nanos {
    (row as u64 % timing.refresh_groups as u64) * timing.t_refi
}

/// Index of the refresh window containing time `t` for `row`.
///
/// Window boundaries for a row sit at `phase + k * W`; the index increments
/// at each boundary, so two times share an index iff no refresh of this row
/// happened between them.
pub(crate) fn window_index(row: u32, t: Nanos, timing: &DramTiming) -> u64 {
    let w = timing.refresh_window();
    let phase = refresh_phase(row, timing);
    (t + w - phase) / w
}

/// The first time strictly after... precisely: the next refresh boundary of
/// `row` at or after time `t` (the end of the window containing `t`).
pub(crate) fn next_refresh_time(row: u32, t: Nanos, timing: &DramTiming) -> Nanos {
    let w = timing.refresh_window();
    let phase = refresh_phase(row, timing);
    phase + window_index(row, t, timing) * w
}

impl BankState {
    /// Registers an access to `row`. Returns `true` if it was a row-buffer
    /// miss (an `ACT` was issued — the only case that disturbs neighbours).
    pub(crate) fn activate(&mut self, row: u32) -> bool {
        if self.open_row == Some(row) {
            false
        } else {
            self.open_row = Some(row);
            self.acts += 1;
            true
        }
    }

    /// Forces the row buffer open on `row` without counting (used by the bulk
    /// hammer path, which accounts for ACTs itself).
    pub(crate) fn set_open_row(&mut self, row: u32, acts: u64) {
        self.open_row = Some(row);
        self.acts += acts;
    }

    /// Currently open row, if any.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Total ACTs issued by this bank.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn acts(&self) -> u64 {
        self.acts
    }

    /// Adds `units` of disturbance to `row` at time `t`, applying any refresh
    /// that occurred since the last update first.
    pub(crate) fn add_disturbance(
        &mut self,
        row: u32,
        units: u64,
        t: Nanos,
        timing: &DramTiming,
    ) -> DisturbDelta {
        self.disturbance
            .entry(row)
            .or_default()
            .add(units, window_index(row, t, timing))
    }

    /// Clears the disturbance of `row` — an `ACT` of a row restores the
    /// charge of its own cells, acting as an implicit refresh.
    pub(crate) fn clear_disturbance(&mut self, row: u32) {
        self.disturbance.remove(&row);
    }

    /// Current in-window disturbance of `row` at time `t` (0 if refreshed
    /// since the last update).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn disturbance(&self, row: u32, t: Nanos, timing: &DramTiming) -> u64 {
        self.disturbance
            .get(&row)
            .map_or(0, |d| d.level(window_index(row, t, timing)))
    }
}

/// One victim row of a bulk hammer call.
#[derive(Debug)]
pub(crate) struct VictimSlot {
    /// Row index within the hammered bank.
    pub(crate) row: u32,
    /// Disturbance units one round of the aggressor pattern adds.
    units_per_round: u64,
    /// The row's weak cells, fetched once per call.
    pub(crate) eval: Arc<RowEval>,
    /// Refresh-window index of `row` at the table's current time.
    window: u64,
    /// End of that window: the next time `row` is refreshed.
    next_refresh: Nanos,
    /// The row's disturbance entry; `None` where the bank map has none.
    entry: Option<Disturbance>,
}

impl VictimSlot {
    /// Adds `rounds` rounds of disturbance at the table's current time, as
    /// [`BankState::add_disturbance`] would.
    pub(crate) fn add_rounds(&mut self, rounds: u64) -> DisturbDelta {
        self.entry
            .get_or_insert_with(Disturbance::default)
            .add(self.units_per_round * rounds, self.window)
    }
}

/// The victim rows of one bulk hammer call, held outside the bank map for
/// the call's duration.
///
/// Between refresh boundaries nothing about a victim changes but its
/// counter, so the table keeps each row's window index and next refresh
/// time and recomputes them only when the clock passes that refresh. The
/// chunk loop then does no map lookups and no window arithmetic.
/// [`Self::store`] writes the entries back exactly: the bank map ends as
/// per-row [`BankState::add_disturbance`]/[`BankState::clear_disturbance`]
/// calls would have left it.
#[derive(Debug, Default)]
pub(crate) struct VictimTable {
    slots: Vec<VictimSlot>,
}

impl VictimTable {
    /// Lifts `victims` — `(row, units per round, weak cells)` — out of
    /// `bank`.
    pub(crate) fn load(
        bank: &BankState,
        victims: impl IntoIterator<Item = (u32, u64, Arc<RowEval>)>,
    ) -> Self {
        let slots = victims
            .into_iter()
            .map(|(row, units_per_round, eval)| VictimSlot {
                row,
                units_per_round,
                eval,
                // Stale on purpose: the first `advance_to` computes both.
                window: 0,
                next_refresh: 0,
                entry: bank.disturbance.get(&row).copied(),
            })
            .collect();
        VictimTable { slots }
    }

    /// True when the call has no victims (every neighbour is an aggressor).
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slots, in victim order.
    pub(crate) fn slots_mut(&mut self) -> &mut [VictimSlot] {
        &mut self.slots
    }

    /// Moves the table's clock to `t` (never earlier than the last call)
    /// and returns the earliest next refresh of any victim, or `None` for
    /// an empty table.
    pub(crate) fn advance_to(&mut self, t: Nanos, timing: &DramTiming) -> Option<Nanos> {
        let mut earliest: Option<Nanos> = None;
        for slot in &mut self.slots {
            if t >= slot.next_refresh {
                slot.window = window_index(slot.row, t, timing);
                slot.next_refresh = next_refresh_time(slot.row, t, timing);
            }
            earliest = Some(earliest.map_or(slot.next_refresh, |e| e.min(slot.next_refresh)));
        }
        earliest
    }

    /// Each victim's disturbance at the table's current time: the
    /// fast-forward's periodicity witness.
    pub(crate) fn levels(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| s.entry.map_or(0, |d| d.level(s.window)))
            .collect()
    }

    /// Refreshes `row` if the table holds it; returns whether it does.
    pub(crate) fn refresh(&mut self, row: u32) -> bool {
        match self.slots.iter_mut().find(|s| s.row == row) {
            Some(slot) => {
                slot.entry = None;
                true
            }
            None => false,
        }
    }

    /// Shifts every entry's window index by `delta` windows: the
    /// bookkeeping half of the bulk-hammer fast-forward. When the clock
    /// jumps by an exact multiple of the refresh window, a fresh entry
    /// stays fresh (and a stale one stays stale) only if its window index
    /// advances by the same amount.
    pub(crate) fn shift_windows(&mut self, delta: u64) {
        for entry in self.slots.iter_mut().filter_map(|s| s.entry.as_mut()) {
            entry.window += delta;
        }
    }

    /// Writes every entry back to `bank`: present ones are inserted,
    /// refreshed or never-disturbed ones removed.
    pub(crate) fn store(self, bank: &mut BankState) {
        for slot in self.slots {
            match slot.entry {
                Some(entry) => {
                    bank.disturbance.insert(slot.row, entry);
                }
                None => {
                    bank.disturbance.remove(&slot.row);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTiming {
        DramTiming::ddr3_1600()
    }

    #[test]
    fn activate_tracks_row_buffer() {
        let mut b = BankState::default();
        assert!(b.activate(5)); // cold miss
        assert!(!b.activate(5)); // hit
        assert!(b.activate(6)); // conflict
        assert_eq!(b.acts(), 2);
        assert_eq!(b.open_row(), Some(6));
    }

    #[test]
    fn window_index_increments_at_phase() {
        let t = timing();
        let w = t.refresh_window();
        // Row 0 has phase 0: boundary exactly at multiples of the window.
        assert_eq!(window_index(0, 0, &t), 1);
        assert_eq!(window_index(0, w - 1, &t), 1);
        assert_eq!(window_index(0, w, &t), 2);
        // Row 1 has phase t_refi.
        assert_eq!(window_index(1, 0, &t), 0);
        assert_eq!(window_index(1, t.t_refi, &t), 1);
    }

    #[test]
    fn next_refresh_is_window_end() {
        let t = timing();
        let w = t.refresh_window();
        assert_eq!(next_refresh_time(0, 0, &t), w);
        assert_eq!(next_refresh_time(0, w - 1, &t), w);
        assert_eq!(next_refresh_time(0, w, &t), 2 * w);
        assert_eq!(next_refresh_time(7, 0, &t), 7 * t.t_refi);
        // next_refresh_time is always strictly in the future of the window.
        for row in [0u32, 1, 100, 8191] {
            for time in [0u64, 123_456, w / 2, w + 17] {
                let nrt = next_refresh_time(row, time, &t);
                assert!(nrt >= time);
                assert_eq!(window_index(row, nrt, &t), window_index(row, time, &t) + 1);
            }
        }
    }

    #[test]
    fn disturbance_accumulates_within_window() {
        let t = timing();
        let mut b = BankState::default();
        let d1 = b.add_disturbance(100, 10, 1_000, &t);
        assert_eq!((d1.old_units, d1.new_units), (0, 10));
        let d2 = b.add_disturbance(100, 5, 2_000, &t);
        assert_eq!((d2.old_units, d2.new_units), (10, 15));
        assert_eq!(b.disturbance(100, 2_500, &t), 15);
    }

    #[test]
    fn refresh_resets_disturbance() {
        let t = timing();
        let mut b = BankState::default();
        b.add_disturbance(100, 10, 0, &t);
        let after = next_refresh_time(100, 0, &t);
        // A query in the next window sees zero...
        assert_eq!(b.disturbance(100, after, &t), 0);
        // ...and a new add starts from zero.
        let d = b.add_disturbance(100, 3, after, &t);
        assert_eq!((d.old_units, d.new_units), (0, 3));
    }

    #[test]
    fn victim_table_writes_back_what_per_row_updates_would() {
        // Rows 10 and 11 carry entries into the call; row 12 starts
        // absent. The second step lands on row 11's refresh, and its
        // refresh of row 10 leaves an entry the write-back must remove.
        let t = timing();
        let mut held = BankState::default();
        held.add_disturbance(10, 7, 0, &t);
        held.add_disturbance(11, 5, 0, &t);
        let mut direct = held.clone();
        let eval =
            crate::cells::WeakCellMap::new(1, crate::WeakCellParams::flippy(), 64).row_eval(0);
        let rows = [(10u32, 16u64), (11, 1), (12, 17)];
        let mut table = VictimTable::load(&held, rows.map(|(r, u)| (r, u, Arc::clone(&eval))));
        let steps = [(1_000, 3, 12), (next_refresh_time(11, 1_000, &t), 1, 10)];
        for (now, rounds, refreshed) in steps {
            table.advance_to(now, &t);
            for (slot, (row, units)) in table.slots_mut().iter_mut().zip(rows) {
                let (a, b) = (
                    slot.add_rounds(rounds),
                    direct.add_disturbance(row, units * rounds, now, &t),
                );
                assert_eq!((a.old_units, a.new_units), (b.old_units, b.new_units));
            }
            assert!(table.refresh(refreshed));
            direct.clear_disturbance(refreshed);
            let levels = rows.map(|(row, _)| direct.disturbance(row, now, &t));
            assert_eq!(table.levels(), levels);
        }
        assert!(!table.refresh(99), "row 99 is no victim");
        table.store(&mut held);
        assert_eq!(held, direct);
    }

    #[test]
    fn different_rows_have_staggered_phases() {
        let t = timing();
        let a = next_refresh_time(10, 0, &t);
        let b = next_refresh_time(11, 0, &t);
        assert_ne!(a, b);
        assert_eq!(b - a, t.t_refi);
    }
}
