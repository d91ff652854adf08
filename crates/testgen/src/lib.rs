//! # testgen — coverage-guided testcase generation
//!
//! The paper refines testsuites by hand: run the suite, read the coverage
//! report, craft a new input signal for whatever stayed uncovered, repeat
//! (Table II records those iterations). This crate closes that loop with
//! a **seeded search engine**: a [`Generator`] takes a design plus an
//! optional seed [`stimuli::Testsuite`], then iteratively synthesizes
//! candidate testcases from the [`stimuli::Signal`] grammar — fresh
//! random shapes, mutations of accepted cases
//! (amplitude/offset/step-time perturbation, shape replacement) and
//! channel crossovers — and keeps exactly the candidates that exercise
//! associations the suite has not reached yet.
//!
//! Fitness is **class-weighted** ([`ClassWeights`]): exercising one rare
//! `PFirm`/`PWeak` association outweighs several easy `Strong` ones, so
//! the search gravitates toward the associations the paper needed extra
//! hand-written iterations for. A greedy set-cover pass
//! ([`GenOutcome::minimized`]) then drops dominated cases while
//! preserving the exercised set.
//!
//! Everything is **deterministic**: candidates come from a splitmix64
//! stream ([`GenRng`]) seeded by [`GenConfig::seed`], and simulation,
//! matching and acceptance all happen on the single-threaded control
//! path — so a fixed seed produces byte-identical suites and reports at
//! any `DFT_THREADS`.
//!
//! Budgets ([`GenConfig::limits`]) bound every candidate simulation, so a
//! hostile candidate (runaway oscillator, panic) degrades gracefully
//! instead of hanging the search. The engine stops on an explicit target,
//! full static coverage, stagnation, or the iteration cap — the latter two
//! matter because real designs have infeasible associations (the sensor's
//! buggy ADC keeps four controller associations unreachable; no search
//! can cover them).

#![warn(missing_docs)]

mod engine;
mod minimize;
mod mutate;
mod report;
mod rng;

pub use engine::{ClassWeights, GenConfig, GenOutcome, Generator};
pub use mutate::{
    crossover, mutate_signal, mutate_testcase, random_signal, random_testcase, ChannelSpec,
};
pub use report::{GenIterationRow, GenReport};
pub use rng::GenRng;
