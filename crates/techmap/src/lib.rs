//! Technology mapping: covering an [`aig::Aig`] with standard cells.
//!
//! This crate substitutes for ABC's `map` command in the paper's
//! flows: k-feasible cuts are enumerated over the AIG, each cut
//! function is Boolean-matched against the cell library
//! ([`Matcher`]), and a topological dynamic program selects a
//! delay- or area-optimal cover ([`Mapper`]), producing a gate-level
//! [`Netlist`] for static timing analysis.
//!
//! Loops that map many candidates (the SA ground-truth evaluator,
//! data-generation labeling) hold a [`MapContext`] and call
//! [`Mapper::map_with`]: the context keeps the cut arena, the
//! `chosen`/`arrival`/`flow` DP tables, and a dominance-pruned match
//! shortlist memo warm across calls, making the steady-state DP
//! allocation-free while producing netlists identical to
//! [`Mapper::map`].
//!
//! The incremental timing engine builds on top: a [`MappedDesign`]
//! keeps one tracking-enabled [`Netlist`] alive across in-place SA
//! steps ([`Mapper::sync_design`] patches it to follow the refreshed
//! DP rows, and [`Mapper::undo_sync`] restores rows and design from a
//! journal when the edit is rolled back), [`SizingTable`] + [`resize_greedy_incremental`] re-run
//! the greedy sizing passes as worklists over the patch footprint,
//! and the `sta` crate's `IncrementalSta` re-propagates arrivals over
//! the dirty cone — all bit-identical to the full pipeline.
//!
//! # Examples
//!
//! ```
//! use aig::Aig;
//! use cells::sky130ish;
//! use techmap::{MapOptions, Mapper};
//!
//! let mut g = Aig::new();
//! let a = g.add_input();
//! let b = g.add_input();
//! let c = g.add_input();
//! let ab = g.and(a, b);
//! let f = g.or(ab, c);
//! g.add_output(f, Some("y"));
//!
//! let lib = sky130ish();
//! let netlist = Mapper::new(&lib, MapOptions::default()).map(&g)?;
//! assert!(netlist.area_um2(&lib) > 0.0);
//! # Ok::<(), techmap::MapError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod design;
mod mapper;
mod matcher;
mod netlist;
mod pool;
mod sizing;
mod verilog;

pub use design::MappedDesign;
pub use mapper::{DpSnapshot, MapContext, MapError, MapGoal, MapOptions, Mapper};
pub use matcher::{CellMatch, Matcher};
pub use netlist::{Gate, GateId, NetDriver, NetId, Netlist, OutputPort, Sink};
pub use pool::MapPool;
pub use sizing::{
    resize_greedy, resize_greedy_capture, resize_greedy_incremental, resize_greedy_with, SizeState,
    SizingTable,
};
pub use verilog::{library_models, to_verilog};
