//! `cbi` — cooperative bug isolation from the command line.
//!
//! ```text
//! cbi instrument <file.mc> [--scheme checks|returns|scalar-pairs|branches]
//!     Print the instrumented program (unconditional) and its site table.
//!
//! cbi transform <file.mc> [--scheme S] [--global-countdown] [--no-regions]
//!     Print the sampling-transformed program.
//!
//! cbi disasm <file.mc> [--stage source|instrument|sample] [--scheme S]
//!     Print the deterministic bytecode listing — raw, instrumented, or
//!     after the sampling transformation (fast/slow clones and fused
//!     countdown ops visible).
//!
//! cbi run <file.mc> [--scheme S] [--density D] [--seed N] [--input "1 2 3"]
//!         [--engine bytecode|namemap]
//!     Run one sampled execution; print outcome, ops, output, and the
//!     nonzero counters.  Both engines give bit-identical results; the
//!     bytecode dispatch loop is the default.
//!
//! cbi campaign <file.mc> <inputs.txt> [--scheme S] [--density D] [--seed N]
//!              [--jobs N] [--out reports.jsonl] [--spool reports.cbr]
//!              [--transmit HOST:PORT]
//!     Run a campaign: one run per input line, writing reports as JSONL.
//!     `--jobs N` shards trials over N worker threads; the report stream
//!     is bit-identical at any job count.  `--spool` archives the binary
//!     wire frames to disk; `--transmit` streams them to a `cbi serve`
//!     ingest server.
//!
//! cbi analyze <reports.jsonl|.cbr> <file.mc> [--scheme S]
//!             [--mode eliminate|regress]
//!     Run the §3.2 elimination or §3.3 regression analysis over reports
//!     (JSONL or binary spool, detected by the `CBIR` magic).
//!
//! cbi serve <file.mc> [--scheme S] [--addr 127.0.0.1:0] [--max-conns N]
//!           [--mode eliminate|regress|both] [--spool reports.cbr]
//!     Run a loopback ingest server pinned to the program's instrumented
//!     layout; analyze the ingested stream after the last connection.
//!
//! cbi transmit <reports.jsonl|.cbr> --to HOST:PORT [<file.mc>] [--scheme S]
//!     Replay an archived report stream to an ingest server.
//!
//! cbi corpus generate <dir> [--size N] [--seed N] [--trials N]
//!     Plant one validated, labeled bug per program (seeded testgen
//!     programs plus ccrypt/bc) and write the ground-truth manifest.
//!
//! cbi corpus evaluate <dir> [--densities 1,10,100,1000] [--jobs N]
//!                     [--out report.txt] [--summary-out summary.txt]
//!     Score elimination and regression against the manifest across the
//!     sampling-density sweep; output is byte-identical at any --jobs.
//! ```
//!
//! Inputs for `campaign` are given as a text file with one run per line,
//! each line whitespace-separated integers.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
