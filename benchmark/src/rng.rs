//! Seeded generators: every input the benchmark feeds the program comes
//! from here, so one `--seed` fixes the whole op stream.
//!
//! `crates/bench` has a generator and a Zipf sampler too, and the
//! benchmark deliberately does not use them: its op streams are part of
//! the ruler. An edit to `rl_bench::rng` (its Zipf was rewritten once
//! already) would change what every seed means and with it every
//! baseline, from outside `benchmark/`, where no diff of the benchmark
//! would show it. See also the note in `json.rs`.

/// SplitMix64: statistically solid, one `u64` of state, and cheap enough
/// that generating ops never shows up next to the ops themselves.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, stream)`: client threads, rounds
    /// and set-up each draw from their own, so changing how many values
    /// one of them consumes never shifts the others.
    ///
    /// Seed and stream are each hashed before they are combined. SplitMix
    /// walks its state in steps of one constant, so states that differ by
    /// a small multiple of that constant (as `seed + stream · constant`
    /// would give) are the same sequence a few draws apart.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let hashed_seed = Rng(seed).next_u64();
        let hashed_stream = Rng(!stream).next_u64();
        Rng(hashed_seed ^ hashed_stream.rotate_left(32))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks `0..n` with exponent `s`, by inverting a precomputed
/// CDF. The populations here are at most tens of thousands, so the table
/// is small and a sample is one binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty population");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Maps popularity ranks onto ids so the hot set is scattered over the
/// key space (and differs per seed) instead of sitting on adjacent keys.
#[derive(Debug, Clone)]
pub struct Scatter {
    n: u64,
    stride: u64,
    offset: u64,
}

impl Scatter {
    pub fn new(n: usize, rng: &mut Rng) -> Scatter {
        let n = n as u64;
        // Any stride coprime to n is a bijection on 0..n.
        let mut stride = (n / 2 + rng.below(n.max(2) / 2)).max(1);
        while gcd(stride, n) != 1 {
            stride += 1;
        }
        Scatter {
            n,
            stride,
            offset: rng.below(n),
        }
    }

    pub fn id(&self, rank: usize) -> u64 {
        (rank as u64 * self.stride + self.offset) % self.n
    }
}

/// The op classes of one round: class `c` appears `n · mix[c] / Σmix`
/// times (the first classes take the remainder), in a shuffled order.
/// Drawing each op's class independently would make the number of
/// expensive ops differ from round to round, and with it the round time —
/// noise the benchmark would be adding to what it measures.
pub fn class_deck(mix: &[u32], n: usize, rng: &mut Rng) -> Vec<u8> {
    let total: u32 = mix.iter().sum();
    let mut deck = Vec::with_capacity(n);
    for (class, &w) in mix.iter().enumerate() {
        deck.extend(std::iter::repeat_n(
            class as u8,
            n * w as usize / total as usize,
        ));
    }
    let mut next = mix.iter().position(|&w| w > 0).expect("a class has weight");
    while deck.len() < n {
        deck.push(next as u8);
        next = (next + 1..mix.len())
            .chain(0..=next)
            .find(|&c| mix[c] > 0)
            .expect("a class has weight");
    }
    rng.shuffle(&mut deck);
    deck
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
