//! SRAM memory-compiler model.
//!
//! The paper's flow instantiates macros from a commercial 65 nm memory
//! compiler offering single- and dual-port low-power SRAM with
//! 16–65536 words and 2–144-bit words. This module reproduces that
//! interface: [`MemoryCompiler::compile`] turns a [`SramConfig`] into a
//! characterized [`SramMacro`] (area, access time, power, footprint).
//!
//! The model encodes the two facts GPUPlanner's design-space
//! exploration relies on:
//!
//! 1. access time grows with the number of words (and mildly with word
//!    size), so *dividing* a macro produces faster memories;
//! 2. two macros of size `M×N` are larger and leakier than one macro of
//!    size `2M×N`, so division costs area and power.
//!
//! ```
//! use ggpu_tech::sram::{MemoryCompiler, PortKind, SramConfig};
//!
//! # fn main() -> Result<(), ggpu_tech::sram::CompileSramError> {
//! let compiler = MemoryCompiler::l65lp();
//! let big = compiler.compile(SramConfig::dual(2048, 32))?;
//! let half = compiler.compile(SramConfig::dual(1024, 32))?;
//! assert!(half.access_time < big.access_time);
//! assert!(2.0 * half.area.value() > big.area.value());
//! # Ok(())
//! # }
//! ```

use crate::units::{FemtoFarads, Ns, PicoJoules, Um, Um2};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, PoisonError, RwLock};

/// Number of read/write ports of a macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PortKind {
    /// One shared read/write port.
    Single,
    /// Two independent ports (the paper notes most G-GPU memories must
    /// be dual-port).
    Dual,
}

impl fmt::Display for PortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortKind::Single => f.write_str("1P"),
            PortKind::Dual => f.write_str("2P"),
        }
    }
}

/// Requested macro geometry: `words` addresses of `bits`-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SramConfig {
    /// Number of addressable words (compiler range: 16–65536).
    pub words: u32,
    /// Word size in bits (compiler range: 2–144).
    pub bits: u32,
    /// Port configuration.
    pub ports: PortKind,
}

/// Compiler limits, matching the paper's §III description.
pub const MIN_WORDS: u32 = 16;
/// See [`MIN_WORDS`].
pub const MAX_WORDS: u32 = 65536;
/// See [`MIN_WORDS`].
pub const MIN_BITS: u32 = 2;
/// See [`MIN_WORDS`].
pub const MAX_BITS: u32 = 144;

impl SramConfig {
    /// Convenience constructor for a single-port macro.
    pub fn single(words: u32, bits: u32) -> Self {
        Self {
            words,
            bits,
            ports: PortKind::Single,
        }
    }

    /// Convenience constructor for a dual-port macro.
    pub fn dual(words: u32, bits: u32) -> Self {
        Self {
            words,
            bits,
            ports: PortKind::Dual,
        }
    }

    /// Total storage capacity in bits.
    pub fn capacity_bits(self) -> u64 {
        u64::from(self.words) * u64::from(self.bits)
    }

    /// Checks the geometry against the compiler range.
    pub fn validate(self) -> Result<(), CompileSramError> {
        if !(MIN_WORDS..=MAX_WORDS).contains(&self.words) {
            return Err(CompileSramError::WordsOutOfRange(self.words));
        }
        if !(MIN_BITS..=MAX_BITS).contains(&self.bits) {
            return Err(CompileSramError::BitsOutOfRange(self.bits));
        }
        Ok(())
    }

    /// Splits this macro into `n` macros each holding `words / n`
    /// addresses — the word-direction memory-division transform.
    ///
    /// # Errors
    ///
    /// Fails if `n` does not evenly divide `words`, or if the divided
    /// geometry falls outside the compiler range.
    pub fn split_words(self, n: u32) -> Result<Vec<SramConfig>, CompileSramError> {
        if n == 0 || !self.words.is_multiple_of(n) {
            return Err(CompileSramError::UnevenSplit {
                extent: self.words,
                parts: n,
            });
        }
        let part = SramConfig {
            words: self.words / n,
            ..self
        };
        part.validate()?;
        Ok(vec![part; n as usize])
    }

    /// Splits this macro into `n` macros each holding `bits / n` of
    /// every word — the bit-direction memory-division transform.
    ///
    /// # Errors
    ///
    /// Fails if `n` does not evenly divide `bits`, or if the divided
    /// geometry falls outside the compiler range.
    pub fn split_bits(self, n: u32) -> Result<Vec<SramConfig>, CompileSramError> {
        if n == 0 || !self.bits.is_multiple_of(n) {
            return Err(CompileSramError::UnevenSplit {
                extent: self.bits,
                parts: n,
            });
        }
        let part = SramConfig {
            bits: self.bits / n,
            ..self
        };
        part.validate()?;
        Ok(vec![part; n as usize])
    }
}

impl fmt::Display for SramConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} {}", self.words, self.bits, self.ports)
    }
}

/// Per-word error-protection scheme stored alongside the data bits of
/// a macro.
///
/// The memory compiler itself is protection-agnostic — ECC is "just
/// more columns" — so a protected macro is compiled by widening its
/// word via [`SramConfig::with_ecc`] and the scheme only determines
/// *how many* extra columns are paid for:
///
/// * [`EccScheme::Parity`]: 1 bit per word; detects any odd number of
///   flipped bits, corrects nothing.
/// * [`EccScheme::SecDed`]: extended Hamming; corrects single-bit and
///   detects double-bit errors at a cost of
///   [`secded_check_bits`]` + 1` bits per word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum EccScheme {
    /// No protection: flips propagate silently.
    #[default]
    None,
    /// Single even-parity bit per word (detect-only, odd flips).
    Parity,
    /// Extended Hamming SEC-DED per word.
    SecDed,
}

impl EccScheme {
    /// Extra storage bits per `data_bits`-bit word this scheme costs.
    pub fn check_bits(self, data_bits: u32) -> u32 {
        match self {
            EccScheme::None => 0,
            EccScheme::Parity => 1,
            EccScheme::SecDed => secded_check_bits(data_bits) + 1,
        }
    }

    /// Short machine-readable name (`none`/`parity`/`secded`).
    pub fn as_str(self) -> &'static str {
        match self {
            EccScheme::None => "none",
            EccScheme::Parity => "parity",
            EccScheme::SecDed => "secded",
        }
    }

    /// Parses the output of [`EccScheme::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(EccScheme::None),
            "parity" => Some(EccScheme::Parity),
            "secded" => Some(EccScheme::SecDed),
            _ => None,
        }
    }
}

impl fmt::Display for EccScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Number of Hamming check bits `r` required to single-error-correct a
/// `data_bits`-bit word: the smallest `r` with `2^r >= data_bits + r + 1`.
/// SEC-DED (extended Hamming) adds one further overall-parity bit on
/// top of this.
pub fn secded_check_bits(data_bits: u32) -> u32 {
    let mut r = 1u32;
    while (1u64 << r) < u64::from(data_bits) + u64::from(r) + 1 {
        r += 1;
    }
    r
}

impl SramConfig {
    /// The same geometry widened to store `scheme`'s check bits next to
    /// every data word — how GPUPlanner compiles a protected macro.
    ///
    /// # Errors
    ///
    /// Returns [`CompileSramError::BitsOutOfRange`] if the widened word
    /// exceeds the compiler's 144-bit limit (the caller must divide the
    /// macro in the bit direction first).
    pub fn with_ecc(self, scheme: EccScheme) -> Result<SramConfig, CompileSramError> {
        let widened = SramConfig {
            bits: self.bits + scheme.check_bits(self.bits),
            ..self
        };
        widened.validate()?;
        Ok(widened)
    }
}

/// Error returned when a requested geometry cannot be compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileSramError {
    /// Word count outside 16–65536.
    WordsOutOfRange(u32),
    /// Word size outside 2–144 bits.
    BitsOutOfRange(u32),
    /// A division was requested that does not evenly partition the
    /// macro.
    UnevenSplit {
        /// The extent (words or bits) being divided.
        extent: u32,
        /// The requested number of parts.
        parts: u32,
    },
}

impl fmt::Display for CompileSramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileSramError::WordsOutOfRange(w) => {
                write!(
                    f,
                    "word count {w} outside compiler range {MIN_WORDS}-{MAX_WORDS}"
                )
            }
            CompileSramError::BitsOutOfRange(b) => {
                write!(
                    f,
                    "word size {b} outside compiler range {MIN_BITS}-{MAX_BITS}"
                )
            }
            CompileSramError::UnevenSplit { extent, parts } => {
                write!(f, "cannot split extent {extent} into {parts} equal parts")
            }
        }
    }
}

impl Error for CompileSramError {}

/// A characterized macro produced by [`MemoryCompiler::compile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    /// The geometry this macro implements.
    pub config: SramConfig,
    /// Placed macro area including periphery.
    pub area: Um2,
    /// Footprint width (bitline direction).
    pub width: Um,
    /// Footprint height (wordline direction).
    pub height: Um,
    /// Address-to-data read access time.
    pub access_time: Ns,
    /// Minimum clock period the macro supports.
    pub cycle_time: Ns,
    /// Setup time required on address/data inputs.
    pub setup: Ns,
    /// Static leakage.
    pub leakage: crate::units::NanoWatts,
    /// Energy per read access.
    pub read_energy: PicoJoules,
    /// Energy per write access.
    pub write_energy: PicoJoules,
    /// Capacitance presented by each address/data input pin.
    pub input_cap: FemtoFarads,
}

/// Technology constants of the memory compiler; exposed so that the
/// calibration tests can document exactly which knobs reproduce the
/// paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramParams {
    /// Bit-cell area for a single-port cell.
    pub bitcell_area_1p: f64,
    /// Bit-cell area for a dual-port cell.
    pub bitcell_area_2p: f64,
    /// Fixed periphery area per macro (control, timing circuitry).
    pub periphery_area: f64,
    /// Periphery fraction proportional to array area (well taps,
    /// redundancy).
    pub periphery_frac: f64,
    /// Periphery area per bit of word width (sense amps, write
    /// drivers, IO). This term is what makes memory division cost
    /// area: every new macro pays the full column periphery again.
    pub periphery_per_bit: f64,
    /// Periphery area per word (row decoder).
    pub periphery_per_word: f64,
    /// Fixed component of access time (ns).
    pub t_fixed: f64,
    /// Access-time coefficient on `words^t_word_exp` (ns).
    pub t_word: f64,
    /// Exponent of the word-count term of the access time. Calibrated
    /// steeper than sqrt (0.8) so that halving a large macro buys the
    /// ~0.55 ns the paper's 500 -> 667 MHz step requires.
    pub t_word_exp: f64,
    /// Access-time coefficient on `bits` (ns).
    pub t_bit: f64,
    /// Dual-port access-time penalty (ratio).
    pub t_dual_penalty: f64,
    /// Fixed leakage per macro (nW).
    pub leak_fixed: f64,
    /// Leakage per kilobit (nW).
    pub leak_per_kbit: f64,
    /// Fixed read energy per access (pJ).
    pub e_fixed: f64,
    /// Read-energy coefficient on `bits * sqrt(words)` (pJ).
    pub e_bit_word: f64,
}

/// Structural hash over the bit patterns of every model constant, so
/// two compilers key the same [`CompiledSramCache`] entries iff their
/// technology constants are bit-identical.
impl Hash for SramParams {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in [
            self.bitcell_area_1p,
            self.bitcell_area_2p,
            self.periphery_area,
            self.periphery_frac,
            self.periphery_per_bit,
            self.periphery_per_word,
            self.t_fixed,
            self.t_word,
            self.t_word_exp,
            self.t_bit,
            self.t_dual_penalty,
            self.leak_fixed,
            self.leak_per_kbit,
            self.e_fixed,
            self.e_bit_word,
        ] {
            state.write_u64(v.to_bits());
        }
    }
}

impl SramParams {
    /// Constants for the synthetic 65 nm low-power compiler.
    pub fn l65lp() -> Self {
        Self {
            bitcell_area_1p: 0.62,
            bitcell_area_2p: 1.06,
            periphery_area: 2600.0,
            periphery_frac: 0.04,
            periphery_per_bit: 150.0,
            periphery_per_word: 3.0,
            t_fixed: 0.26,
            t_word: 0.002838,
            t_word_exp: 0.8,
            t_bit: 0.0014,
            t_dual_penalty: 1.08,
            leak_fixed: 2_000.0,
            leak_per_kbit: 1700.0,
            e_fixed: 4.0,
            e_bit_word: 0.058,
        }
    }
}

/// The memory compiler: turns geometries into characterized macros.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct MemoryCompiler {
    params: SramParams,
    /// Structural fingerprint of `params`, precomputed once so that
    /// every [`CompiledSramCache`] probe keys on a single `u64` instead
    /// of re-hashing fifteen model constants.
    params_key: u64,
}

impl MemoryCompiler {
    /// Compiler with explicit technology constants.
    pub fn new(params: SramParams) -> Self {
        let mut h = DefaultHasher::new();
        params.hash(&mut h);
        Self {
            params,
            params_key: h.finish(),
        }
    }

    /// The synthetic 65 nm low-power compiler used throughout the
    /// reproduction.
    pub fn l65lp() -> Self {
        Self::new(SramParams::l65lp())
    }

    /// The technology constants in effect.
    pub fn params(&self) -> &SramParams {
        &self.params
    }

    /// Compiles `config` into a characterized macro.
    ///
    /// # Errors
    ///
    /// Returns [`CompileSramError`] if the geometry is outside the
    /// compiler range (16–65536 words, 2–144 bits).
    pub fn compile(&self, config: SramConfig) -> Result<SramMacro, CompileSramError> {
        config.validate()?;
        let p = &self.params;
        let words = f64::from(config.words);
        let bits = f64::from(config.bits);
        let bitcell = match config.ports {
            PortKind::Single => p.bitcell_area_1p,
            PortKind::Dual => p.bitcell_area_2p,
        };
        let array = bitcell * words * bits;
        let area = array * (1.0 + p.periphery_frac)
            + p.periphery_per_bit * bits
            + p.periphery_per_word * words
            + p.periphery_area;

        // Column-mux factor 4: the physical array is words/4 rows of
        // bits*4 columns, which keeps tall memories from becoming
        // unroutable slivers. The footprint is normalized so that
        // width * height equals the reported area (periphery included),
        // with the aspect ratio taken from the array geometry.
        let colmux = 4.0_f64.min(words / f64::from(MIN_WORDS));
        let cell_w = (bitcell / 0.82).sqrt() * 0.95;
        let cell_h = bitcell / cell_w;
        let raw_w = bits * colmux * cell_w + 14.0;
        let raw_h = (words / colmux) * cell_h + 22.0;
        let aspect = (raw_w / raw_h).clamp(0.2, 5.0);
        let width = (area * aspect).sqrt();
        let height = area / width;

        let mut access = p.t_fixed + p.t_word * words.powf(p.t_word_exp) + p.t_bit * bits;
        if config.ports == PortKind::Dual {
            access *= p.t_dual_penalty;
        }
        let cycle = access * 1.12;

        let leakage = p.leak_fixed + p.leak_per_kbit * (words * bits / 1000.0);
        let read_energy = p.e_fixed + p.e_bit_word * bits * words.sqrt();
        let write_energy = read_energy * 1.12;

        Ok(SramMacro {
            config,
            area: Um2::new(area),
            width: Um::new(width),
            height: Um::new(height),
            access_time: Ns::new(access),
            cycle_time: Ns::new(cycle),
            setup: Ns::new(0.10),
            leakage: crate::units::NanoWatts::new(leakage),
            read_energy: PicoJoules::new(read_energy),
            write_energy: PicoJoules::new(write_energy),
            input_cap: FemtoFarads::new(6.0),
        })
    }

    /// Memoized [`MemoryCompiler::compile`] through the process-wide
    /// [`CompiledSramCache`].
    ///
    /// Identical geometries are the common case in a G-GPU netlist —
    /// register-file banks are cloned per PE, CRAM banks per CU — so
    /// each distinct `(technology constants, geometry)` pair is
    /// characterized once per process and every further request is a
    /// table lookup. Results (including deterministic range errors)
    /// are bit-identical to the raw path: the cache stores exactly
    /// what [`MemoryCompiler::compile`] returned.
    ///
    /// # Errors
    ///
    /// Returns [`CompileSramError`] under the same conditions as
    /// [`MemoryCompiler::compile`] (errors are memoized too — the
    /// compiler is a pure function of its constants and the geometry).
    pub fn compile_cached(&self, config: SramConfig) -> Result<SramMacro, CompileSramError> {
        CompiledSramCache::global().get_or_compile(self, config)
    }
}

impl Default for MemoryCompiler {
    fn default() -> Self {
        Self::l65lp()
    }
}

/// Process-wide memo table for compiled SRAM macros, keyed by
/// `(technology-constants fingerprint, geometry)`.
///
/// The STA inner loop compiles the launching/capturing macro of every
/// memory path on every analysis; before memoization a single
/// `optimize_for` run re-characterized the same handful of geometries
/// thousands of times. The table is shared by all threads (reads take
/// a shared `RwLock` guard) and lives for the process, matching the
/// lifetime a real memory compiler's on-disk characterization database
/// would have.
#[derive(Debug)]
pub struct CompiledSramCache {
    table: RwLock<HashMap<(u64, SramConfig), Result<SramMacro, CompileSramError>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompiledSramCache {
    fn new() -> Self {
        Self {
            table: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide instance used by
    /// [`MemoryCompiler::compile_cached`].
    pub fn global() -> &'static CompiledSramCache {
        static GLOBAL: OnceLock<CompiledSramCache> = OnceLock::new();
        GLOBAL.get_or_init(CompiledSramCache::new)
    }

    /// Looks up `(compiler, config)`, compiling and memoizing on miss.
    ///
    /// # Errors
    ///
    /// Propagates (and memoizes) [`CompileSramError`] from the
    /// underlying compile.
    pub fn get_or_compile(
        &self,
        compiler: &MemoryCompiler,
        config: SramConfig,
    ) -> Result<SramMacro, CompileSramError> {
        let key = (compiler.params_key, config);
        if let Some(r) = self
            .table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *r;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let r = compiler.compile(config);
        self.table
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, r);
        r
    }

    /// Lookups answered from the table.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the characterization model.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of memoized geometries.
    pub fn entries(&self) -> usize {
        self.table
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiler() -> MemoryCompiler {
        MemoryCompiler::l65lp()
    }

    #[test]
    fn compile_typical_macro() {
        let m = compiler().compile(SramConfig::dual(2048, 32)).unwrap();
        // A 64 Kib dual-port 65 nm LP macro is on the order of
        // 0.05-0.11 mm^2 with ~1.3-1.9 ns access.
        assert!(m.area.value() > 50_000.0 && m.area.value() < 110_000.0);
        assert!(m.access_time.value() > 1.2 && m.access_time.value() < 1.9);
    }

    #[test]
    fn division_speeds_access_but_costs_area() {
        let c = compiler();
        let whole = c.compile(SramConfig::dual(4096, 32)).unwrap();
        let parts = SramConfig::dual(4096, 32).split_words(2).unwrap();
        let part = c.compile(parts[0]).unwrap();
        assert!(part.access_time < whole.access_time);
        assert!(
            2.0 * part.area.value() > whole.area.value(),
            "two halves must be larger than the whole"
        );
        assert!(2.0 * part.leakage.value() > whole.leakage.value());
    }

    #[test]
    fn bit_division_also_speeds_access() {
        let c = compiler();
        let whole = c.compile(SramConfig::dual(1024, 64)).unwrap();
        let part = c.compile(SramConfig::dual(1024, 32)).unwrap();
        assert!(part.access_time < whole.access_time);
    }

    #[test]
    fn dual_port_is_bigger_and_slower_than_single() {
        let c = compiler();
        let s = c.compile(SramConfig::single(1024, 32)).unwrap();
        let d = c.compile(SramConfig::dual(1024, 32)).unwrap();
        assert!(d.area > s.area);
        assert!(d.access_time > s.access_time);
    }

    #[test]
    fn range_limits_enforced() {
        let c = compiler();
        assert_eq!(
            c.compile(SramConfig::dual(8, 32)).unwrap_err(),
            CompileSramError::WordsOutOfRange(8)
        );
        assert_eq!(
            c.compile(SramConfig::dual(131072, 32)).unwrap_err(),
            CompileSramError::WordsOutOfRange(131072)
        );
        assert_eq!(
            c.compile(SramConfig::dual(1024, 1)).unwrap_err(),
            CompileSramError::BitsOutOfRange(1)
        );
        assert_eq!(
            c.compile(SramConfig::dual(1024, 160)).unwrap_err(),
            CompileSramError::BitsOutOfRange(160)
        );
        assert!(c.compile(SramConfig::dual(MIN_WORDS, MIN_BITS)).is_ok());
        assert!(c.compile(SramConfig::dual(MAX_WORDS, MAX_BITS)).is_ok());
    }

    #[test]
    fn split_words_validates() {
        let cfg = SramConfig::dual(2048, 32);
        let parts = cfg.split_words(4).unwrap();
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| p.words == 512 && p.bits == 32));

        assert!(matches!(
            cfg.split_words(3),
            Err(CompileSramError::UnevenSplit {
                extent: 2048,
                parts: 3
            })
        ));
        // Splitting a 16-word macro would go below the range.
        assert!(SramConfig::dual(16, 32).split_words(2).is_err());
        assert!(cfg.split_words(0).is_err());
    }

    #[test]
    fn split_bits_validates() {
        let cfg = SramConfig::dual(2048, 32);
        let parts = cfg.split_bits(2).unwrap();
        assert!(parts.iter().all(|p| p.bits == 16 && p.words == 2048));
        assert!(SramConfig::dual(2048, 2).split_bits(2).is_err());
        assert!(cfg.split_bits(5).is_err());
    }

    #[test]
    fn capacity() {
        assert_eq!(SramConfig::dual(2048, 32).capacity_bits(), 65536);
    }

    #[test]
    fn footprint_is_positive_and_consistent() {
        let m = compiler().compile(SramConfig::dual(512, 128)).unwrap();
        assert!(m.width.value() > 0.0 && m.height.value() > 0.0);
        // The bounding box should be within 2.5x of the reported area
        // (periphery and routing halo).
        let bbox = m.width.value() * m.height.value();
        assert!(
            bbox < 2.5 * m.area.value(),
            "bbox {bbox} vs area {}",
            m.area
        );
    }

    #[test]
    fn cached_compile_is_bit_identical_to_raw() {
        let c = compiler();
        // A table of this test's own, so the counts are exact.
        let cache = CompiledSramCache::new();
        let cfg = SramConfig::dual(8192, 72);
        let raw = c.compile(cfg).unwrap();
        let first = cache.get_or_compile(&c, cfg).unwrap();
        let second = cache.get_or_compile(&c, cfg).unwrap();
        assert_eq!(first, raw);
        assert_eq!(second, raw);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn cached_compile_memoizes_errors() {
        let c = compiler();
        let bad = SramConfig::dual(7, 3); // unique out-of-range key
        assert_eq!(
            c.compile_cached(bad).unwrap_err(),
            CompileSramError::WordsOutOfRange(7)
        );
        assert_eq!(
            c.compile_cached(bad).unwrap_err(),
            CompileSramError::WordsOutOfRange(7)
        );
    }

    #[test]
    fn different_params_key_different_cache_entries() {
        let a = MemoryCompiler::l65lp();
        let mut params = SramParams::l65lp();
        params.t_fixed = 0.5;
        let b = MemoryCompiler::new(params);
        let cfg = SramConfig::single(4096, 130); // unique to this test
        let ma = a.compile_cached(cfg).unwrap();
        let mb = b.compile_cached(cfg).unwrap();
        assert!(mb.access_time > ma.access_time, "t_fixed raise must show");
        assert_eq!(ma, a.compile(cfg).unwrap());
        assert_eq!(mb, b.compile(cfg).unwrap());
    }

    #[test]
    fn secded_check_bits_match_hamming_table() {
        // Classic extended-Hamming overheads: (data bits, r).
        for (k, r) in [
            (2, 3),
            (4, 3),
            (8, 4),
            (11, 4),
            (16, 5),
            (26, 5),
            (32, 6),
            (57, 6),
            (64, 7),
            (120, 7),
            (128, 8),
            (144, 8),
        ] {
            assert_eq!(secded_check_bits(k), r, "k={k}");
            // Defining inequality holds and is tight.
            assert!((1u64 << r) > u64::from(k) + u64::from(r));
            assert!((1u64 << (r - 1)) < u64::from(k) + u64::from(r), "k={k}");
        }
    }

    #[test]
    fn ecc_widening_costs_and_limits() {
        let cfg = SramConfig::dual(2048, 32);
        assert_eq!(cfg.with_ecc(EccScheme::None).unwrap(), cfg);
        assert_eq!(cfg.with_ecc(EccScheme::Parity).unwrap().bits, 33);
        // 32 data bits need r=6 plus the overall parity bit.
        assert_eq!(cfg.with_ecc(EccScheme::SecDed).unwrap().bits, 39);
        assert_eq!(EccScheme::SecDed.check_bits(32), 7);
        assert_eq!(EccScheme::Parity.check_bits(144), 1);
        // Widening past the 144-bit compiler limit is a typed error.
        assert_eq!(
            SramConfig::dual(1024, 144)
                .with_ecc(EccScheme::Parity)
                .unwrap_err(),
            CompileSramError::BitsOutOfRange(145)
        );
        assert!(SramConfig::dual(1024, 140)
            .with_ecc(EccScheme::SecDed)
            .is_err());
        // Widened macros cost area/energy — protection is not free.
        let c = compiler();
        let plain = c.compile(cfg).unwrap();
        let prot = c.compile(cfg.with_ecc(EccScheme::SecDed).unwrap()).unwrap();
        assert!(prot.area > plain.area);
        assert!(prot.read_energy > plain.read_energy);
    }

    #[test]
    fn ecc_scheme_round_trips_names() {
        for s in [EccScheme::None, EccScheme::Parity, EccScheme::SecDed] {
            assert_eq!(EccScheme::parse(s.as_str()), Some(s));
            assert_eq!(s.to_string(), s.as_str());
        }
        assert_eq!(EccScheme::parse("hamming"), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SramConfig::dual(2048, 32).to_string(), "2048x32 2P");
        assert_eq!(SramConfig::single(64, 8).to_string(), "64x8 1P");
        let e = CompileSramError::WordsOutOfRange(8).to_string();
        assert!(e.contains("word count 8"));
    }
}
