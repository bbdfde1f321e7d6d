//! Property-based tests of tensor algebra and autograd correctness.

#![allow(clippy::disallowed_methods)] // unwrap/expect gate covers schedule, hwsim, serve (see clippy.toml)

use proptest::prelude::*;
use tlp_nn::{Graph, Tensor};

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

/// Central-difference gradient check helper.
fn numeric_grad(
    build: impl Fn(&mut Graph, tlp_nn::Var) -> tlp_nn::Var,
    input: &Tensor,
    i: usize,
) -> f32 {
    let eps = 1e-2f32;
    let eval = |t: Tensor| {
        let mut g = Graph::new();
        let x = g.leaf(t, false);
        let loss = build(&mut g, x);
        g.value(loss).item()
    };
    let mut plus = input.clone();
    plus.data_mut()[i] += eps;
    let mut minus = input.clone();
    minus.data_mut()[i] -= eps;
    (eval(plus) - eval(minus)) / (2.0 * eps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes(
        a in finite_vec(6),
        b in finite_vec(8),
        c in finite_vec(8),
    ) {
        let a = Tensor::from_vec(a, &[3, 2]);
        let b = Tensor::from_vec(b, &[2, 4]);
        let c = Tensor::from_vec(c, &[2, 4]);
        let lhs = a.matmul(&b.zip(&c, |x, y| x + y));
        let rhs = a.matmul(&b).zip(&a.matmul(&c), |x, y| x + y);
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((l - r).abs() < 1e-3, "{l} vs {r}");
        }
    }

    /// Transposed-matmul helpers agree bit for bit with explicit permutes.
    #[test]
    fn matmul_variants_consistent(a in finite_vec(6), b in finite_vec(6)) {
        let a2 = Tensor::from_vec(a, &[3, 2]); // lhs [k=3, m=2] for tn
        let b2 = Tensor::from_vec(b, &[3, 2]); // rhs [k=3, n=2]
        let tn = a2.matmul_tn(&b2);
        let explicit = a2.permute(&[1, 0]).matmul(&b2);
        for (l, r) in tn.data().iter().zip(explicit.data()) {
            prop_assert_eq!(l.to_bits(), r.to_bits());
        }
        // nt: lhs [m=3, k=2] × (rhs [n=3, k=2])ᵀ.
        let nt = a2.matmul_nt(&b2);
        let explicit = a2.matmul(&b2.permute(&[1, 0]));
        for (l, r) in nt.data().iter().zip(explicit.data()) {
            prop_assert_eq!(l.to_bits(), r.to_bits());
        }
    }

    /// Softmax rows sum to 1 and are positive for any input.
    #[test]
    fn softmax_is_distribution(x in finite_vec(12)) {
        let mut g = Graph::new();
        let v = g.constant(Tensor::from_vec(x, &[3, 4]));
        let s = g.softmax(v);
        for row in g.value(s).data().chunks(4) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| p > 0.0));
        }
    }

    /// Autograd matches numeric gradients for a composite expression.
    #[test]
    fn composite_gradient_check(x in finite_vec(6), idx in 0usize..6) {
        let input = Tensor::from_vec(x, &[2, 3]);
        let build = |g: &mut Graph, x: tlp_nn::Var| {
            let t = g.tanh(x);
            let s = g.sigmoid(t);
            let m = g.mul(s, t);
            g.sum_all(m)
        };
        let mut g = Graph::new();
        let xv = g.leaf(input.clone(), true);
        let loss = build(&mut g, xv);
        g.backward(loss);
        let analytic = g.grad(xv).unwrap().data()[idx];
        let numeric = numeric_grad(build, &input, idx);
        prop_assert!(
            (analytic - numeric).abs() <= 0.02 * (1.0 + numeric.abs()),
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    /// Backward through bmm + permute keeps gradient shape equal to input.
    #[test]
    fn grad_shapes_match_inputs(x in finite_vec(24)) {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(x, &[2, 3, 4]), true);
        let p = g.permute(a, &[0, 2, 1]); // [2,4,3]
        let prod = g.bmm(p, a); // [2,4,4]
        let loss = g.sum_all(prod);
        g.backward(loss);
        prop_assert_eq!(g.grad(a).unwrap().shape(), &[2, 3, 4]);
    }

    /// Reductions agree: sum over an axis then sum-all equals sum-all.
    #[test]
    fn reduction_consistency(x in finite_vec(24)) {
        let t = Tensor::from_vec(x, &[2, 3, 4]);
        let total = t.sum();
        let mut g = Graph::new();
        let v = g.constant(t);
        let partial = g.sum_axis(v, 1);
        let back = g.sum_all(partial);
        prop_assert!((g.value(back).item() - total).abs() < 1e-3);
    }
}
