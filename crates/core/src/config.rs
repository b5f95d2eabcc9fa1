//! Accelerator configuration (Table 3).

use core::fmt;

/// Configuration of a ShiDianNao accelerator instance.
///
/// The defaults of [`AcceleratorConfig::paper`] reproduce Table 3's
/// evaluated design: an 8 × 8 PE mesh, 64 KB NBin, 64 KB NBout, 128 KB SB,
/// 32 KB IB, at 1 GHz. The PE grid and buffer sizes are configurable for
/// the design-space ablations (Fig. 7's PE sweep).
///
/// # Examples
///
/// ```
/// use shidiannao_core::AcceleratorConfig;
/// let cfg = AcceleratorConfig::paper();
/// assert_eq!(cfg.pe_count(), 64);
/// assert_eq!(cfg.sram_bytes(), 288 * 1024);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct AcceleratorConfig {
    /// PE mesh columns (`Px`).
    pub pe_cols: usize,
    /// PE mesh rows (`Py`).
    pub pe_rows: usize,
    /// NBin capacity in bytes.
    pub nbin_bytes: usize,
    /// NBout capacity in bytes.
    pub nbout_bytes: usize,
    /// Synapse buffer capacity in bytes.
    pub sb_bytes: usize,
    /// Instruction buffer capacity in bytes.
    pub ib_bytes: usize,
    /// Clock frequency in GHz (the paper's layout runs at 1 GHz).
    pub frequency_ghz: f64,
    /// Enables inter-PE data propagation through the FIFOs (§5.1). The
    /// `false` setting is the Fig. 7 ablation: every PE input is re-read
    /// from NBin.
    pub inter_pe_propagation: bool,
    /// ALU lane count: how many activation/division operations retire per
    /// cycle. Modeled as one lane per PE column, matching the Px-wide
    /// output register array the ALU drains.
    pub alu_lanes: usize,
    /// Enables the §10.2 design alternative the paper rejected: packing
    /// several small output feature maps onto the PE array simultaneously.
    /// Off in the paper design; the `ablation_multimap` bench measures the
    /// trade-off.
    pub multi_map_packing: bool,
    /// Charges the serialization stalls a banked NB SRAM incurs when one
    /// request needs several rows of the same bank (possible only for
    /// strided reads — the paper's six modes are conflict-free at stride
    /// 1). The paper's controller is idealized (off by default); conflict
    /// cycles are always *measured* into
    /// [`LayerStats::bank_conflict_cycles`](crate::LayerStats).
    pub model_bank_conflicts: bool,
}

impl AcceleratorConfig {
    /// The largest PE mesh side (`pe_cols`, `pe_rows`)
    /// [`validate`](AcceleratorConfig::validate) accepts: 32 times the
    /// paper's side of 8, and 16 times the side of the tuner's widest
    /// mesh (16 × 16).
    /// It bounds a session's mesh at 65 536 PEs, so no configuration can
    /// make the simulator allocate an unbounded mesh, and
    /// [`pe_count`](AcceleratorConfig::pe_count) of a valid configuration
    /// cannot overflow.
    pub const MAX_PE_SIDE: usize = 256;

    /// The largest `alu_lanes` [`validate`](AcceleratorConfig::validate)
    /// accepts: one lane per column of the widest mesh.
    pub const MAX_ALU_LANES: usize = Self::MAX_PE_SIDE;

    /// The evaluated 8 × 8 design of Table 3.
    pub fn paper() -> AcceleratorConfig {
        AcceleratorConfig {
            pe_cols: 8,
            pe_rows: 8,
            nbin_bytes: 64 * 1024,
            nbout_bytes: 64 * 1024,
            sb_bytes: 128 * 1024,
            ib_bytes: 32 * 1024,
            frequency_ghz: 1.0,
            inter_pe_propagation: true,
            alu_lanes: 8,
            multi_map_packing: false,
            model_bank_conflicts: false,
        }
    }

    /// A paper-parameter design with a different PE mesh (used by the
    /// Fig. 7 bandwidth sweep). ALU lanes track the column count.
    pub fn with_pe_grid(cols: usize, rows: usize) -> AcceleratorConfig {
        AcceleratorConfig {
            pe_cols: cols,
            pe_rows: rows,
            alu_lanes: cols.max(1),
            ..AcceleratorConfig::paper()
        }
    }

    /// Disables inter-PE propagation (Fig. 7's "without" series).
    pub fn without_propagation(mut self) -> AcceleratorConfig {
        self.inter_pe_propagation = false;
        self
    }

    /// Enables multi-map packing (the rejected §10.2 alternative).
    pub fn with_multi_map_packing(mut self) -> AcceleratorConfig {
        self.multi_map_packing = true;
        self
    }

    /// Enables bank-conflict stall modeling for the NB SRAMs.
    pub fn with_bank_conflicts(mut self) -> AcceleratorConfig {
        self.model_bank_conflicts = true;
        self
    }

    /// Number of processing elements (`Px × Py`).
    #[inline]
    pub fn pe_count(&self) -> usize {
        self.pe_cols * self.pe_rows
    }

    /// Total on-chip SRAM in bytes (NBin + NBout + SB + IB); 288 KB for the
    /// paper design (§10.1).
    #[inline]
    pub fn sram_bytes(&self) -> usize {
        self.nbin_bytes + self.nbout_bytes + self.sb_bytes + self.ib_bytes
    }

    /// NB bank count per buffer: `2 × Py` (§6).
    #[inline]
    pub fn nb_banks(&self) -> usize {
        2 * self.pe_rows
    }

    /// NB bank width in bytes: `Px × 2` (§6).
    #[inline]
    pub fn nb_bank_width_bytes(&self) -> usize {
        self.pe_cols * 2
    }

    /// Cycle time in nanoseconds.
    #[inline]
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.frequency_ghz
    }

    /// Peak throughput in fixed-point GOP/s, counting one multiply and one
    /// add per PE per cycle.
    pub fn peak_gops(&self) -> f64 {
        2.0 * self.pe_count() as f64 * self.frequency_ghz
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a dimension or capacity is zero, a
    /// mesh side exceeds [`MAX_PE_SIDE`](AcceleratorConfig::MAX_PE_SIDE),
    /// the lane count exceeds
    /// [`MAX_ALU_LANES`](AcceleratorConfig::MAX_ALU_LANES), or the
    /// frequency is not positive and finite.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pe_cols == 0 || self.pe_rows == 0 {
            return Err(ConfigError::new("PE mesh must be non-empty"));
        }
        if self.pe_cols > Self::MAX_PE_SIDE || self.pe_rows > Self::MAX_PE_SIDE {
            return Err(ConfigError::new(format!(
                "PE mesh {} x {} exceeds the {max} x {max} bound",
                self.pe_cols,
                self.pe_rows,
                max = Self::MAX_PE_SIDE
            )));
        }
        if self.nbin_bytes == 0 || self.nbout_bytes == 0 || self.sb_bytes == 0 {
            return Err(ConfigError::new("buffer capacities must be non-zero"));
        }
        if self.ib_bytes == 0 {
            return Err(ConfigError::new("instruction buffer must be non-zero"));
        }
        if !(self.frequency_ghz.is_finite() && self.frequency_ghz > 0.0) {
            return Err(ConfigError::new("frequency must be positive and finite"));
        }
        if self.alu_lanes == 0 {
            return Err(ConfigError::new("ALU must have at least one lane"));
        }
        if self.alu_lanes > Self::MAX_ALU_LANES {
            return Err(ConfigError::new(format!(
                "ALU lanes {} exceed the bound of {}",
                self.alu_lanes,
                Self::MAX_ALU_LANES
            )));
        }
        Ok(())
    }
}

impl Default for AcceleratorConfig {
    fn default() -> AcceleratorConfig {
        AcceleratorConfig::paper()
    }
}

/// Error returned by [`AcceleratorConfig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> ConfigError {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid accelerator configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_table3() {
        let c = AcceleratorConfig::paper();
        assert_eq!(c.pe_count(), 64);
        assert_eq!(c.nbin_bytes, 65_536);
        assert_eq!(c.nbout_bytes, 65_536);
        assert_eq!(c.sb_bytes, 131_072);
        assert_eq!(c.ib_bytes, 32_768);
        assert_eq!(c.sram_bytes(), 288 * 1024);
        assert_eq!(c.nb_banks(), 16);
        assert_eq!(c.nb_bank_width_bytes(), 16);
        assert!(c.validate().is_ok());
        assert_eq!(AcceleratorConfig::default(), c);
    }

    #[test]
    fn peak_gops_scales_with_pes() {
        assert_eq!(AcceleratorConfig::paper().peak_gops(), 128.0);
        assert_eq!(AcceleratorConfig::with_pe_grid(4, 4).peak_gops(), 32.0);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = AcceleratorConfig::paper();
        c.pe_cols = 0;
        assert!(c.validate().is_err());
        let mut c = AcceleratorConfig::paper();
        c.sb_bytes = 0;
        assert!(c.validate().is_err());
        for f in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut c = AcceleratorConfig::paper();
            c.frequency_ghz = f;
            assert!(c.validate().is_err(), "frequency {f}");
        }
        let mut c = AcceleratorConfig::paper();
        c.alu_lanes = 0;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("ALU"));
    }

    #[test]
    fn mesh_and_lanes_are_bounded() {
        let max = AcceleratorConfig::MAX_PE_SIDE;
        let c = AcceleratorConfig::with_pe_grid(max, max);
        assert_eq!(c.alu_lanes, AcceleratorConfig::MAX_ALU_LANES);
        assert!(c.validate().is_ok());
        for (cols, rows) in [(max + 1, 1), (1, max + 1), (usize::MAX, usize::MAX)] {
            let err = AcceleratorConfig::with_pe_grid(cols, rows)
                .validate()
                .unwrap_err();
            assert!(err.to_string().contains("bound"), "{cols} x {rows}: {err}");
        }
        let mut c = AcceleratorConfig::paper();
        c.alu_lanes = AcceleratorConfig::MAX_ALU_LANES + 1;
        assert!(c.validate().unwrap_err().to_string().contains("ALU"));
    }

    #[test]
    fn ablation_toggle() {
        let c = AcceleratorConfig::paper().without_propagation();
        assert!(!c.inter_pe_propagation);
        assert!(!c.multi_map_packing);
        assert!(
            AcceleratorConfig::paper()
                .with_multi_map_packing()
                .multi_map_packing
        );
    }

    #[test]
    fn cycle_time() {
        assert_eq!(AcceleratorConfig::paper().cycle_ns(), 1.0);
    }
}
