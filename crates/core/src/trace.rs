//! Machine-readable exports of execution statistics.
//!
//! Architecture work lives and dies by its measurement dumps; this module
//! renders a run's per-layer counters as CSV (for spreadsheets/plotters)
//! and as a human-readable summary table.

use crate::stats::{LayerStats, ReadMode, RunStats};

/// The CSV header matching [`layer_csv_row`].
pub const CSV_HEADER: &str = "layer,cycles,pe_busy_slots,pe_total_slots,pe_utilization,\
nbin_read_bytes,nbin_read_accesses,nbin_write_bytes,nbout_write_bytes,nbout_read_bytes,\
sb_read_bytes,ib_read_bytes,reads_a,reads_b,reads_c,reads_d,reads_e,reads_f,\
pe_muls,pe_adds,pe_cmps,alu_acts,alu_divs,fifo_pushes,fifo_pops,fifo_h_peak,fifo_v_peak,\
bank_conflict_cycles";

/// One layer's counters as a CSV row (no trailing newline).
pub fn layer_csv_row(s: &LayerStats) -> String {
    format!(
        "{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        s.label,
        s.cycles,
        s.pe_busy_slots,
        s.pe_total_slots,
        s.pe_utilization(),
        s.nbin.read_bytes,
        s.nbin.read_accesses,
        s.nbin.write_bytes,
        s.nbout.write_bytes,
        s.nbout.read_bytes,
        s.sb.read_bytes,
        s.ib.read_bytes,
        s.reads_by_mode[ReadMode::A as usize],
        s.reads_by_mode[ReadMode::B as usize],
        s.reads_by_mode[ReadMode::C as usize],
        s.reads_by_mode[ReadMode::D as usize],
        s.reads_by_mode[ReadMode::E as usize],
        s.reads_by_mode[ReadMode::F as usize],
        s.pe_muls,
        s.pe_adds,
        s.pe_cmps,
        s.alu_acts,
        s.alu_divs,
        s.fifo_pushes,
        s.fifo_pops,
        s.fifo_h_peak,
        s.fifo_v_peak,
        s.bank_conflict_cycles,
    )
}

/// Renders a whole run as CSV: header, one row per layer, one `total`
/// row.
pub fn stats_to_csv(stats: &RunStats) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for layer in stats.layers() {
        out.push_str(&layer_csv_row(layer));
        out.push('\n');
    }
    let mut total = stats.total();
    total.label = "total".to_string();
    out.push_str(&layer_csv_row(&total));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> RunStats {
        let mut run = RunStats::new();
        let mut a = LayerStats::new("C1");
        a.cycles = 100;
        a.pe_busy_slots = 500;
        a.pe_total_slots = 640;
        a.nbin_read(ReadMode::A, 128);
        a.nbin_read(ReadMode::F, 16);
        a.pe_muls = 500;
        let mut b = LayerStats::new("F2");
        b.cycles = 40;
        b.nbin_read(ReadMode::D, 2);
        run.push_layer(a);
        run.push_layer(b);
        run
    }

    #[test]
    fn csv_has_header_layers_and_total() {
        let csv = stats_to_csv(&sample_run());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("layer,cycles"));
        assert!(lines[1].starts_with("C1,100,"));
        assert!(lines[2].starts_with("F2,40,"));
        assert!(lines[3].starts_with("total,140,"));
    }

    #[test]
    fn csv_column_count_matches_header() {
        let header_cols = CSV_HEADER.split(',').count();
        for line in stats_to_csv(&sample_run()).lines().skip(1) {
            assert_eq!(line.split(',').count(), header_cols, "{line}");
        }
    }

    #[test]
    fn mode_columns_land_in_order() {
        let csv = stats_to_csv(&sample_run());
        let c1: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        let header: Vec<&str> = CSV_HEADER.split(',').collect();
        let idx = |name: &str| header.iter().position(|&h| h == name).unwrap();
        assert_eq!(c1[idx("reads_a")], "1");
        assert_eq!(c1[idx("reads_f")], "1");
        assert_eq!(c1[idx("reads_d")], "0");
    }
}
