//! Sequence layers for the NLP/recommendation workload proxies: token
//! embedding, single-head self-attention, and mean pooling.
//!
//! These are the "no vendor conv kernel" workloads of Fig 12 (Bert, Electra,
//! NeuMF, SwinTransformer): their reductions are all matmuls and softmax
//! denominators, which stay cheap under the hardware-agnostic D2 profile.

use crate::model::{drain, ExecCtx, Layer, ParamInit};
use tensor::ops;
use tensor::{Shape, Tensor};

/// Token embedding: `[B, S]` of token ids (carried as f32) → `[B, S, D]`.
pub struct Embedding {
    table: Tensor,
    gtable: Tensor,
    vocab: usize,
    dim: usize,
    /// The `[B, S]` input of the last forward pass.
    cached_tokens: Option<Tensor>,
}

impl Embedding {
    /// Normal(0, 0.02) initialized embedding table.
    pub fn init(vocab: usize, dim: usize, rng: &mut dyn ParamInit) -> Self {
        let table = rng.tensor(&[vocab, dim], &mut |r| r.normal_f32() * 0.02);
        Embedding { gtable: Tensor::zeros(&[vocab, dim]), table, vocab, dim, cached_tokens: None }
    }
}

impl Layer for Embedding {
    fn forward(&mut self, x: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 2, "Embedding expects [B,S] token ids");
        let mut out = Tensor::uninit(&[s[0], s[1], self.dim]);
        let td = self.table.data();
        for (row, &t) in out.data_mut().chunks_exact_mut(self.dim).zip(x.data()) {
            let tok = t as usize;
            assert!(tok < self.vocab, "token id {tok} out of vocab {}", self.vocab);
            row.copy_from_slice(&td[tok * self.dim..(tok + 1) * self.dim]);
        }
        self.cached_tokens = Some(x.clone());
        out
    }

    fn backward(&mut self, grad: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let tokens = self.cached_tokens.take().expect("backward before forward");
        let (b, seq) = (tokens.shape()[0], tokens.shape()[1]);
        assert_eq!(grad.shape(), &[b, seq, self.dim]);
        let gd = grad.data();
        let gt = self.gtable.data_mut();
        // Fixed-order scatter-add (token occurrence order), deterministic.
        for (i, &t) in tokens.data().iter().enumerate() {
            let tok = t as usize;
            for d in 0..self.dim {
                gt[tok * self.dim + d] += gd[i * self.dim + d];
            }
        }
        // Token ids are not differentiable; return zeros of the input shape.
        Tensor::zeros(&[b, seq])
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.table]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.table]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gtable]
    }

    fn drain_grads(&mut self, out: &mut Vec<f32>) {
        drain([&mut self.gtable], out);
    }

    fn name(&self) -> &'static str {
        "Embedding"
    }
}

/// Single-head self-attention over `[B, S, D]` with output projection.
pub struct SelfAttention {
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    gq: Tensor,
    gk: Tensor,
    gv: Tensor,
    go: Tensor,
    dim: usize,
    cached: Option<AttnCache>,
}

struct AttnCache {
    x: Tensor,
    q: Vec<Tensor>,
    k: Vec<Tensor>,
    v: Vec<Tensor>,
    p: Vec<Tensor>,
    o: Vec<Tensor>,
    batch: usize,
    seq: usize,
}

impl SelfAttention {
    /// Xavier-initialized attention block.
    pub fn init(dim: usize, rng: &mut dyn ParamInit) -> Self {
        let mk = |rng: &mut dyn ParamInit| {
            let bound = (3.0 / dim as f32).sqrt();
            rng.tensor(&[dim, dim], &mut |r| r.uniform_range_f32(-bound, bound))
        };
        SelfAttention {
            wq: mk(rng),
            wk: mk(rng),
            wv: mk(rng),
            wo: mk(rng),
            gq: Tensor::zeros(&[dim, dim]),
            gk: Tensor::zeros(&[dim, dim]),
            gv: Tensor::zeros(&[dim, dim]),
            go: Tensor::zeros(&[dim, dim]),
            dim,
            cached: None,
        }
    }

    fn sample(&self, x: &Tensor, i: usize, seq: usize) -> Tensor {
        let plane = seq * self.dim;
        Tensor::from_slice(&x.data()[i * plane..(i + 1) * plane]).reshape(&[seq, self.dim])
    }
}

impl Layer for SelfAttention {
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 3, "SelfAttention expects [B,S,D]");
        assert_eq!(s[2], self.dim, "dim mismatch");
        let (b, seq) = (s[0], s[1]);
        let scale = 1.0 / (self.dim as f32).sqrt();
        let mut out = Tensor::uninit(&[b, seq, self.dim]);
        let plane = seq * self.dim;
        let (mut qs, mut ks, mut vs, mut ps, mut os) = (
            Vec::with_capacity(b),
            Vec::with_capacity(b),
            Vec::with_capacity(b),
            Vec::with_capacity(b),
            Vec::with_capacity(b),
        );
        for i in 0..b {
            let xb = self.sample(x, i, seq);
            let q = ops::matmul(&xb, &self.wq, &ctx.profile);
            let k = ops::matmul(&xb, &self.wk, &ctx.profile);
            let v = ops::matmul(&xb, &self.wv, &ctx.profile);
            let mut scores = ops::matmul_a_bt(&q, &k, &ctx.profile);
            scores.scale_(scale);
            let p = ops::softmax_rows(&scores, &ctx.profile);
            let o = ops::matmul(&p, &v, &ctx.profile);
            let y = ops::matmul(&o, &self.wo, &ctx.profile);
            out.data_mut()[i * plane..(i + 1) * plane].copy_from_slice(y.data());
            qs.push(q);
            ks.push(k);
            vs.push(v);
            ps.push(p);
            os.push(o);
        }
        self.cached =
            Some(AttnCache { x: x.clone(), q: qs, k: ks, v: vs, p: ps, o: os, batch: b, seq });
        out
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let c = self.cached.take().expect("backward before forward");
        let (b, seq) = (c.batch, c.seq);
        let plane = seq * self.dim;
        assert_eq!(grad.shape(), &[b, seq, self.dim]);
        let scale = 1.0 / (self.dim as f32).sqrt();
        let mut gx = Tensor::uninit(&[b, seq, self.dim]);

        for i in 0..b {
            let gy = self.sample(grad, i, seq);
            let xb = self.sample(&c.x, i, seq);

            // Output projection.
            self.go.axpy_(1.0, &ops::matmul_at_b(&c.o[i], &gy, &ctx.profile));
            let g_o = ops::matmul_a_bt(&gy, &self.wo, &ctx.profile);

            // O = P·V.
            let g_p = ops::matmul_a_bt(&g_o, &c.v[i], &ctx.profile);
            let g_v = ops::matmul_at_b(&c.p[i], &g_o, &ctx.profile);

            // Softmax backward, row-wise: ds = (dp - <dp,p>) * p.
            let mut g_s = Tensor::uninit(&[seq, seq]);
            {
                let gpd = g_p.data();
                let pd = c.p[i].data();
                let gsd = g_s.data_mut();
                for r in 0..seq {
                    let row_gp = &gpd[r * seq..(r + 1) * seq];
                    let row_p = &pd[r * seq..(r + 1) * seq];
                    let inner = ops::dot(row_gp, row_p, &ctx.profile);
                    for j in 0..seq {
                        gsd[r * seq + j] = (row_gp[j] - inner) * row_p[j];
                    }
                }
            }
            g_s.scale_(scale);

            // scores = Q·Kᵀ (after scaling).
            let g_q = ops::matmul(&g_s, &c.k[i], &ctx.profile);
            let g_k = ops::matmul_at_b(&g_s, &c.q[i], &ctx.profile);

            // Projections: Q = X·Wq etc.
            self.gq.axpy_(1.0, &ops::matmul_at_b(&xb, &g_q, &ctx.profile));
            self.gk.axpy_(1.0, &ops::matmul_at_b(&xb, &g_k, &ctx.profile));
            self.gv.axpy_(1.0, &ops::matmul_at_b(&xb, &g_v, &ctx.profile));
            let mut gxb = ops::matmul_a_bt(&g_q, &self.wq, &ctx.profile);
            gxb.axpy_(1.0, &ops::matmul_a_bt(&g_k, &self.wk, &ctx.profile));
            gxb.axpy_(1.0, &ops::matmul_a_bt(&g_v, &self.wv, &ctx.profile));
            gx.data_mut()[i * plane..(i + 1) * plane].copy_from_slice(gxb.data());
        }
        gx
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.wq, &self.wk, &self.wv, &self.wo]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gq, &self.gk, &self.gv, &self.go]
    }

    fn drain_grads(&mut self, out: &mut Vec<f32>) {
        drain([&mut self.gq, &mut self.gk, &mut self.gv, &mut self.go], out);
    }

    fn name(&self) -> &'static str {
        "SelfAttention"
    }
}

/// Mean pooling over the sequence axis: `[B, S, D]` → `[B, D]`.
pub struct MeanPool {
    cached_shape: Option<Shape>,
}

impl MeanPool {
    /// New pool.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        MeanPool { cached_shape: None }
    }
}

impl Layer for MeanPool {
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 3, "MeanPool expects [B,S,D]");
        let (b, seq, d) = (s[0], s[1], s[2]);
        let mut out = Tensor::uninit(&[b, d]);
        let xd = x.data();
        let od = out.data_mut();
        let mut col = Tensor::uninit(&[seq]);
        let col = col.data_mut();
        for i in 0..b {
            for j in 0..d {
                for t in 0..seq {
                    col[t] = xd[(i * seq + t) * d + j];
                }
                od[i * d + j] = ops::blocked_sum(col, &ctx.profile) / seq as f32;
            }
        }
        self.cached_shape = Some(Shape::new(s));
        out
    }

    fn backward(&mut self, grad: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let s = self.cached_shape.take().expect("backward before forward");
        let (b, seq, d) = (s[0], s[1], s[2]);
        assert_eq!(grad.shape(), &[b, d]);
        let mut gx = Tensor::uninit(&s);
        let gd = grad.data();
        let gxd = gx.data_mut();
        let inv = 1.0 / seq as f32;
        for i in 0..b {
            for t in 0..seq {
                for j in 0..d {
                    gxd[(i * seq + t) * d + j] = gd[i * d + j] * inv;
                }
            }
        }
        gx
    }

    fn name(&self) -> &'static str {
        "MeanPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrng::{EsRng, StreamKey, StreamKind};
    use tensor::KernelProfile;

    fn mk_rng() -> EsRng {
        EsRng::for_stream(4, StreamKey::global(StreamKind::ModelInit))
    }

    fn mk_ctx(rng: &mut EsRng) -> ExecCtx<'_> {
        ExecCtx { profile: KernelProfile::default(), training: true, dropout: rng }
    }

    #[test]
    fn embedding_looks_up_rows() {
        let mut rng = mk_rng();
        let mut emb = Embedding::init(10, 4, &mut rng);
        let x = Tensor::from_vec(vec![3.0, 7.0], &[1, 2]);
        let mut drng = mk_rng();
        let mut ctx = mk_ctx(&mut drng);
        let y = emb.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[1, 2, 4]);
        assert_eq!(&y.data()[0..4], &emb.table.data()[12..16]);
    }

    #[test]
    fn embedding_backward_scatters() {
        let mut rng = mk_rng();
        let mut emb = Embedding::init(10, 2, &mut rng);
        // Token 5 appears twice — gradients must accumulate.
        let x = Tensor::from_vec(vec![5.0, 5.0, 1.0], &[1, 3]);
        let mut drng = mk_rng();
        let mut ctx = mk_ctx(&mut drng);
        emb.forward(&x, &mut ctx);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 3, 2]);
        emb.backward(&g, &mut ctx);
        let gt = emb.grads()[0].data();
        assert_eq!(&gt[10..12], &[4.0, 6.0], "token 5 row sums both positions");
        assert_eq!(&gt[2..4], &[5.0, 6.0], "token 1 row");
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn embedding_checks_vocab() {
        let mut rng = mk_rng();
        let mut emb = Embedding::init(4, 2, &mut rng);
        let x = Tensor::from_vec(vec![4.0], &[1, 1]);
        let mut drng = mk_rng();
        let mut ctx = mk_ctx(&mut drng);
        emb.forward(&x, &mut ctx);
    }

    #[test]
    fn attention_forward_shape_and_determinism() {
        let mut rng = mk_rng();
        let mut attn = SelfAttention::init(8, &mut rng);
        let x =
            Tensor::from_vec((0..2 * 4 * 8).map(|i| (i as f32 * 0.11).sin()).collect(), &[2, 4, 8]);
        let mut drng = mk_rng();
        let y1 = attn.forward(&x, &mut mk_ctx(&mut drng));
        let y2 = attn.forward(&x, &mut mk_ctx(&mut drng));
        assert_eq!(y1.shape(), &[2, 4, 8]);
        assert!(y1.bitwise_eq(&y2));
    }

    #[test]
    fn attention_gradients_match_finite_differences() {
        let mut rng = mk_rng();
        let mut attn = SelfAttention::init(4, &mut rng);
        let x = Tensor::from_vec((0..3 * 4).map(|i| (i as f32 * 0.37).cos()).collect(), &[1, 3, 4]);
        let w: Vec<f32> = (0..12).map(|_| rng.normal_f32()).collect();

        let loss = |attn: &mut SelfAttention, x: &Tensor| -> f32 {
            let mut drng = mk_rng();
            let y = attn.forward(x, &mut mk_ctx(&mut drng));
            y.data().iter().zip(&w).map(|(a, b)| a * b).sum()
        };
        let base = loss(&mut attn, &x);
        let gx = {
            let mut drng = mk_rng();
            let mut ctx = mk_ctx(&mut drng);
            let y = attn.forward(&x, &mut ctx);
            attn.backward(&Tensor::from_vec(w.clone(), y.shape()), &mut ctx)
        };
        let eps = 1e-3f32;
        for &xi in &[0usize, 4, 11] {
            let mut x2 = x.clone();
            x2.data_mut()[xi] += eps;
            let fd = (loss(&mut attn, &x2) - base) / eps;
            assert!((fd - gx.data()[xi]).abs() < 0.02, "dx[{xi}] fd {fd} vs {}", gx.data()[xi]);
        }
        // Wq gradient check.
        let analytic = attn.grads()[0].data()[3];
        attn.params_mut()[0].data_mut()[3] += eps;
        let fd = (loss(&mut attn, &x) - base) / eps;
        assert!((fd - analytic).abs() < 0.02, "dWq fd {fd} vs {analytic}");
    }

    #[test]
    fn meanpool_averages_and_distributes() {
        let mut mp = MeanPool::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[1, 3, 2]);
        let mut drng = mk_rng();
        let mut ctx = mk_ctx(&mut drng);
        let y = mp.forward(&x, &mut ctx);
        assert_eq!(y.data(), &[3.0, 4.0]);
        let g = mp.backward(&Tensor::from_vec(vec![3.0, 6.0], &[1, 2]), &mut ctx);
        assert_eq!(g.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }
}
