//! Two-dimensional DCT image compression (§4.2).
//!
//! The paper's second workload: a 512×512-pixel image is divided into
//! independent B×B blocks (B ∈ {4, 8, 16, 32}), each transformed with the
//! two-dimensional DCT-II and compressed by keeping 25% of the coefficients
//! (zigzag order, quantized to 16 bits).
//!
//! Parallel organization: the master (node 0) holds the source image and
//! the coefficient output in global memory; a shared atomic counter deals
//! out *block-row* tasks; workers fetch their task's pixel rows through the
//! DSM, transform them, and write the kept coefficients back. Small blocks
//! mean many fine-grain tasks — the communication-frequency effect the
//! paper blames for 4×4's missing speedup.

use dse_api::{Distribution, DseProgram, GmArray, GmCounter, NodeId, ParallelApi, RunResult, Work};

use crate::common::run_captured;
use crate::image::Image;

/// Quantization step applied to DCT coefficients before the i16 cast.
const QUANT_STEP: f64 = 8.0;

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct DctParams {
    /// Image side length in pixels (the paper uses 512).
    pub size: usize,
    /// DCT block size B (4, 8, 16 or 32).
    pub block: usize,
    /// Fraction of coefficients kept per block (the paper uses 0.25).
    pub keep: f64,
    /// Seed for the synthetic source image.
    pub seed: u64,
}

impl DctParams {
    /// The paper's configuration for block size `block`.
    pub fn paper(block: usize) -> DctParams {
        DctParams {
            size: 512,
            block,
            keep: 0.25,
            seed: 0xD0C7,
        }
    }

    /// Coefficients kept per block.
    pub fn kept_per_block(&self) -> usize {
        ((self.block * self.block) as f64 * self.keep)
            .ceil()
            .max(1.0) as usize
    }

    /// Number of B×B blocks along one side.
    pub fn blocks_per_side(&self) -> usize {
        assert_eq!(self.size % self.block, 0, "block must divide image size");
        self.size / self.block
    }
}

/// Precomputed 1D DCT-II basis for size B: `basis[u][x] = c(u) cos(...)`.
fn dct_basis(b: usize) -> Vec<Vec<f64>> {
    let bf = b as f64;
    (0..b)
        .map(|u| {
            let cu = if u == 0 {
                (1.0 / bf).sqrt()
            } else {
                (2.0 / bf).sqrt()
            };
            (0..b)
                .map(|x| {
                    cu * (std::f64::consts::PI * (2.0 * x as f64 + 1.0) * u as f64 / (2.0 * bf))
                        .cos()
                })
                .collect()
        })
        .collect()
}

/// Zigzag scan order for a B×B block (low frequencies first).
pub fn zigzag(b: usize) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = (0..b * b).map(|i| (i / b, i % b)).collect();
    order.sort_by_key(|&(u, v)| {
        let d = u + v;
        // Within an anti-diagonal alternate direction, as in JPEG.
        let pos = if d % 2 == 0 { b - 1 - u } else { u };
        (d, pos)
    });
    order
}

/// Forward 2D DCT-II of one B×B block of pixels (values centered on 0).
fn dct2_block(basis: &[Vec<f64>], pix: &[f64], b: usize, out: &mut [f64]) {
    // Rows then columns (separable transform).
    let mut tmp = vec![0.0f64; b * b];
    for y in 0..b {
        for u in 0..b {
            let mut s = 0.0;
            for x in 0..b {
                s += basis[u][x] * pix[y * b + x];
            }
            tmp[y * b + u] = s;
        }
    }
    for u in 0..b {
        for v in 0..b {
            let mut s = 0.0;
            for y in 0..b {
                s += basis[v][y] * tmp[y * b + u];
            }
            out[v * b + u] = s;
        }
    }
}

/// Inverse 2D DCT-II (i.e. DCT-III) of one block.
fn idct2_block(basis: &[Vec<f64>], coeff: &[f64], b: usize, out: &mut [f64]) {
    let mut tmp = vec![0.0f64; b * b];
    for u in 0..b {
        for y in 0..b {
            let mut s = 0.0;
            for v in 0..b {
                s += basis[v][y] * coeff[v * b + u];
            }
            tmp[y * b + u] = s;
        }
    }
    for y in 0..b {
        for x in 0..b {
            let mut s = 0.0;
            for u in 0..b {
                s += basis[u][x] * tmp[y * b + u];
            }
            out[y * b + x] = s;
        }
    }
}

/// Compressed output: kept, quantized coefficients for every block, in
/// task-major order (block rows top to bottom, blocks left to right).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compressed {
    /// Parameters that produced this.
    pub block: usize,
    /// Image side.
    pub size: usize,
    /// Kept coefficients per block.
    pub kept: usize,
    /// Quantized coefficients, `blocks × kept`.
    pub coeffs: Vec<i16>,
}

/// Compress `rows` (a horizontal strip of `b` pixel rows, full width) and
/// append the kept coefficients. Returns FLOP count performed.
fn compress_strip(
    params: &DctParams,
    basis: &[Vec<f64>],
    zz: &[(usize, usize)],
    rows: &[u8],
    out: &mut Vec<i16>,
) -> u64 {
    let b = params.block;
    let width = params.size;
    let kept = params.kept_per_block();
    let mut pix = vec![0.0f64; b * b];
    let mut coeff = vec![0.0f64; b * b];
    let mut flops = 0u64;
    for bx in 0..width / b {
        for y in 0..b {
            for x in 0..b {
                pix[y * b + x] = rows[y * width + bx * b + x] as f64 - 128.0;
            }
        }
        dct2_block(basis, &pix, b, &mut coeff);
        // Two passes of B 1D transforms, each B multiply-adds per output.
        flops += 4 * (b * b * b) as u64;
        for &(u, v) in zz.iter().take(kept) {
            let q = (coeff[u * b + v] / QUANT_STEP).round();
            out.push(q.clamp(i16::MIN as f64, i16::MAX as f64) as i16);
        }
    }
    flops
}

/// Sequential reference compression.
pub fn compress_sequential(params: &DctParams) -> Compressed {
    let img = Image::synthetic(params.size, params.seed);
    let b = params.block;
    let basis = dct_basis(b);
    let zz = zigzag(b);
    let strips = params.blocks_per_side();
    let mut coeffs = Vec::with_capacity(strips * strips * params.kept_per_block());
    for t in 0..strips {
        let rows = &img.pixels[t * b * params.size..(t + 1) * b * params.size];
        compress_strip(params, &basis, &zz, rows, &mut coeffs);
    }
    Compressed {
        block: b,
        size: params.size,
        kept: params.kept_per_block(),
        coeffs,
    }
}

/// Reconstruct an image from compressed coefficients (verification).
pub fn decompress(c: &Compressed) -> Image {
    let b = c.block;
    let basis = dct_basis(b);
    let zz = zigzag(b);
    let strips = c.size / b;
    let mut pixels = vec![0u8; c.size * c.size];
    let mut coeff = vec![0.0f64; b * b];
    let mut pix = vec![0.0f64; b * b];
    let mut it = c.coeffs.iter();
    for ty in 0..strips {
        for bx in 0..strips {
            coeff.iter_mut().for_each(|v| *v = 0.0);
            for &(u, v) in zz.iter().take(c.kept) {
                coeff[u * b + v] =
                    *it.next().expect("coefficient stream short") as f64 * QUANT_STEP;
            }
            idct2_block(&basis, &coeff, b, &mut pix);
            for y in 0..b {
                for x in 0..b {
                    let val = (pix[y * b + x] + 128.0).clamp(0.0, 255.0) as u8;
                    pixels[(ty * b + y) * c.size + bx * b + x] = val;
                }
            }
        }
    }
    Image {
        size: c.size,
        pixels,
    }
}

/// The engine-independent SPMD body; rank 0 returns the compressed output.
pub fn body<A: ParallelApi>(ctx: &mut A, params: &DctParams) -> Option<Compressed> {
    let b = params.block;
    let width = params.size;
    let strips = params.blocks_per_side();
    let kept = params.kept_per_block();
    let strip_coeffs = strips * kept; // blocks per strip × kept
                                      // Master-held source image and coefficient output.
    let gimg = GmArray::<u8>::alloc(ctx, width * width, Distribution::OnNode(NodeId(0)));
    let gout = GmArray::<i16>::alloc(ctx, strips * strip_coeffs, Distribution::OnNode(NodeId(0)));
    let tasks = GmCounter::alloc(ctx);
    if ctx.rank() == 0 {
        let img = Image::synthetic(width, params.seed);
        gimg.write(ctx, 0, &img.pixels);
        ctx.compute(Work::mem_bytes((width * width) as u64));
    }
    ctx.barrier();
    let basis = dct_basis(b);
    let zz = zigzag(b);
    let mut out = Vec::with_capacity(strip_coeffs);
    loop {
        let t = tasks.next(ctx);
        if t as usize >= strips {
            break;
        }
        let t = t as usize;
        // Fetch this strip's pixel rows through the DSM.
        let rows = gimg.read(ctx, t * b * width, b * width);
        out.clear();
        let flops = compress_strip(params, &basis, &zz, &rows, &mut out);
        ctx.compute(Work::flops(flops));
        // Publish the kept coefficients.
        gout.write(ctx, t * strip_coeffs, &out);
    }
    ctx.barrier();
    if ctx.rank() == 0 {
        let coeffs = gout.read(ctx, 0, strips * strip_coeffs);
        Some(Compressed {
            block: b,
            size: width,
            kept,
            coeffs,
        })
    } else {
        None
    }
}

/// Run the parallel compression; returns the measured run and the output
/// (captured from rank 0 and identical to the sequential reference).
pub fn compress_parallel(
    program: &DseProgram,
    nprocs: usize,
    params: DctParams,
) -> (RunResult, Compressed) {
    run_captured(program, nprocs, move |ctx| body(ctx, &params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::psnr;
    use dse_api::Platform;

    #[test]
    fn zigzag_visits_every_cell_once() {
        for b in [2, 4, 8, 16] {
            let mut seen = vec![false; b * b];
            for (u, v) in zigzag(b) {
                assert!(!seen[u * b + v]);
                seen[u * b + v] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn zigzag_starts_at_dc_and_orders_by_frequency() {
        let zz = zigzag(8);
        assert_eq!(zz[0], (0, 0));
        // Later entries never have a smaller diagonal than earlier ones.
        for w in zz.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0 + w[1].1);
        }
    }

    #[test]
    fn dct_roundtrips_without_quantization() {
        let b = 8;
        let basis = dct_basis(b);
        let pix: Vec<f64> = (0..b * b)
            .map(|i| ((i * 37) % 251) as f64 - 128.0)
            .collect();
        let mut coeff = vec![0.0; b * b];
        let mut back = vec![0.0; b * b];
        dct2_block(&basis, &pix, b, &mut coeff);
        idct2_block(&basis, &coeff, b, &mut back);
        for (a, z) in pix.iter().zip(&back) {
            assert!((a - z).abs() < 1e-9, "{a} vs {z}");
        }
    }

    #[test]
    fn dct_energy_preserved() {
        // Orthonormal transform: Parseval's identity.
        let b = 4;
        let basis = dct_basis(b);
        let pix: Vec<f64> = (0..16).map(|i| (i as f64) - 8.0).collect();
        let mut coeff = vec![0.0; 16];
        dct2_block(&basis, &pix, b, &mut coeff);
        let ep: f64 = pix.iter().map(|v| v * v).sum();
        let ec: f64 = coeff.iter().map(|v| v * v).sum();
        assert!((ep - ec).abs() < 1e-9);
    }

    #[test]
    fn sequential_compression_reconstructs_acceptably() {
        for block in [4, 8, 16] {
            let params = DctParams {
                size: 64,
                block,
                keep: 0.25,
                seed: 5,
            };
            let c = compress_sequential(&params);
            assert_eq!(
                c.coeffs.len(),
                (64 / block) * (64 / block) * params.kept_per_block()
            );
            let rec = decompress(&c);
            let orig = Image::synthetic(64, 5);
            let q = psnr(&orig, &rec);
            assert!(q > 22.0, "block {block}: psnr {q} too low");
        }
    }

    #[test]
    fn parallel_output_equals_sequential() {
        let params = DctParams {
            size: 64,
            block: 8,
            keep: 0.25,
            seed: 5,
        };
        let seq = compress_sequential(&params);
        let program = DseProgram::new(Platform::aix_rs6000());
        let (run, par) = compress_parallel(&program, 3, params);
        assert_eq!(par, seq);
        let kernel = |name| run.metrics.counter_sum_over_pes("kernel", name);
        assert!(kernel("fetch_adds") > 0, "task counter unused?");
        assert!(kernel("gm_remote_reads") > 0, "expected DSM image fetches");
    }

    #[test]
    fn kept_per_block_counts() {
        assert_eq!(DctParams::paper(4).kept_per_block(), 4);
        assert_eq!(DctParams::paper(8).kept_per_block(), 16);
        assert_eq!(DctParams::paper(16).kept_per_block(), 64);
        assert_eq!(DctParams::paper(32).kept_per_block(), 256);
    }
}
