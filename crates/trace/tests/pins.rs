//! Pins: the exact output of the four exporters and the exact answers of
//! [`Hist`] on seeded inputs, recorded before the data-plane rewrite
//! (windowed histograms, one-buffer writers) and required to survive it
//! byte for byte. The small report is pinned verbatim under `tests/pins/`
//! so a diff shows what moved; the large one by length and FNV-1a.

#[path = "common/synthetic.rs"]
mod synthetic;

use charm_trace::{frames_artifact, Hist};
use synthetic::{fnv, SplitMix64};

#[test]
fn small_report_exports_are_byte_exact() {
    let rep = synthetic::report(0x5eed, 24);
    assert_eq!(rep.chrome_json(), include_str!("pins/small.chrome.json"));
    assert_eq!(rep.summary(), include_str!("pins/small.summary.txt"));
    assert_eq!(
        rep.summary_artifact(),
        include_str!("pins/small.summary_artifact.txt")
    );
    let frames = synthetic::frames(0x5eed, 7);
    assert_eq!(
        frames_artifact(&frames),
        include_str!("pins/small.frames.txt")
    );
}

#[test]
fn small_report_covers_every_event_kind() {
    let names = synthetic::report(0x5eed, 24).event_kind_names();
    assert_eq!(names.len(), 19, "{names:?}");
}

#[test]
fn large_report_exports_keep_length_and_fnv() {
    let rep = synthetic::report(0xb16, 2_000);
    let got: Vec<(usize, u64)> = [
        rep.chrome_json(),
        rep.summary(),
        rep.summary_artifact(),
        frames_artifact(&synthetic::frames(0xb16, 40)),
    ]
    .iter()
    .map(|text| (text.len(), fnv(text.as_bytes())))
    .collect();
    assert_eq!(got, LARGE);
}

const LARGE: [(usize, u64); 4] = [
    (375_280, 18_108_758_656_960_529_130),
    (2081, 10_520_045_993_841_054_147),
    (1116, 12_247_626_558_833_396_509),
    (296_856, 12_049_000_244_607_386_685),
];

const QS: [f64; 6] = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0];

/// `[digest, count, sum, min, max, q0, q0.5, q0.9, q0.99, q0.999, q1,
/// fnv(buckets)]`.
fn fingerprint(h: &Hist) -> [u64; 12] {
    let mut buckets = charm_trace::fnv::Fnv::new();
    for (lo, hi, n) in h.buckets() {
        buckets.eat_u64(lo);
        buckets.eat_u64(hi);
        buckets.eat_u64(n);
    }
    let mut out = [0u64; 12];
    out[..5].copy_from_slice(&[h.digest(), h.count(), h.sum(), h.min(), h.max()]);
    for (slot, q) in out[5..11].iter_mut().zip(QS) {
        *slot = h.quantile(q).expect("non-empty");
    }
    out[11] = buckets.finish();
    out
}

/// A seeded stream on one grid: wide-magnitude samples and a `record_n`
/// burst, the sum short of saturation.
fn seeded_hist(sub_bits: u32, seed: u64) -> Hist {
    let mut rng = SplitMix64(seed);
    let mut h = Hist::new(sub_bits);
    for _ in 0..5_000 {
        h.record(rng.wide() >> 4);
    }
    h.record_n(rng.wide(), 17);
    h
}

/// The same plus zero and the grid's top bucket (which saturates the sum).
fn seeded_hist_with_extremes(sub_bits: u32, seed: u64) -> Hist {
    let mut h = seeded_hist(sub_bits, seed);
    h.record(0);
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    h
}

#[test]
fn hist_answers_are_pinned_on_three_grids() {
    let got: Vec<[u64; 12]> = [1, 5, 10]
        .iter()
        .flat_map(|&b| {
            let seed = 0x4157 + u64::from(b);
            [
                fingerprint(&seeded_hist(b, seed)),
                fingerprint(&seeded_hist_with_extremes(b, seed)),
            ]
        })
        .collect();
    assert_eq!(got, HIST_GRIDS);
}

#[test]
fn hist_merges_are_pinned_on_equal_and_unequal_grids() {
    let (h1, h5, h10) = (
        seeded_hist(1, 11),
        seeded_hist(5, 12),
        seeded_hist_with_extremes(10, 13),
    );
    let merged = |dst: &Hist, src: &Hist| {
        let mut m = dst.clone();
        m.merge(src);
        fingerprint(&m)
    };
    let got = vec![
        merged(&h5, &seeded_hist(5, 14)),
        merged(&h5, &h1),
        merged(&h5, &h10),
        merged(&h1, &h10),
        merged(&h10, &h1),
        merged(&Hist::new(5), &h10),
    ];
    assert_eq!(got, HIST_MERGES);
}

#[test]
fn empty_hist_is_pinned() {
    for b in [1, 5, 10] {
        let h = Hist::new(b);
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max(), h.quantile(0.5)),
            (0, 0, 0, 0, None)
        );
        assert_eq!(h.buckets().count(), 0);
    }
    let got: Vec<u64> = [1, 5, 10].iter().map(|&b| Hist::new(b).digest()).collect();
    assert_eq!(got, HIST_EMPTY_DIGESTS);
}

const HIST_GRIDS: [[u64; 12]; 6] = [
    [
        6_799_624_541_108_772_180,
        5017,
        1_890_643_895_194_481,
        0,
        17_262_574_689_462,
        0,
        655_359,
        343_597_383_679,
        10_995_116_277_759,
        15_393_162_788_863,
        17_262_574_689_462,
        17_696_508_969_575_604_689,
    ],
    [
        5_335_551_984_990_032_546,
        5020,
        18_446_744_073_709_551_615,
        0,
        18_446_744_073_709_551_615,
        0,
        655_359,
        343_597_383_679,
        10_995_116_277_759,
        15_393_162_788_863,
        18_446_744_073_709_551_615,
        1_323_751_615_582_793_673,
    ],
    [
        3_098_010_040_745_137_886,
        5017,
        1_572_106_235_145_406,
        0,
        17_511_642_993_652,
        0,
        372_735,
        238_370_684_927,
        8_315_056_685_055,
        17_179_869_183_999,
        17_511_642_993_652,
        99_347_148_196_716_222,
    ],
    [
        7_992_433_637_284_641_546,
        5020,
        18_446_744_073_709_551_615,
        0,
        18_446_744_073_709_551_615,
        0,
        372_735,
        238_370_684_927,
        8_452_495_638_527,
        17_454_747_090_943,
        18_446_744_073_709_551_615,
        10_529_091_375_123_702_033,
    ],
    [
        14_442_635_632_252_512_781,
        5017,
        1_655_241_965_786_461,
        0,
        16_991_601_903_447,
        0,
        468_863,
        334_873_231_359,
        8_261_369_593_855,
        15_912_853_831_679,
        16_991_601_903_447,
        311_017_167_299_224_003,
    ],
    [
        13_164_364_580_131_420_987,
        5020,
        18_446_744_073_709_551_615,
        0,
        18_446_744_073_709_551_615,
        0,
        468_863,
        336_215_408_639,
        8_325_794_103_295,
        16_479_789_514_751,
        18_446_744_073_709_551_615,
        16_731_588_754_429_872_631,
    ],
];
const HIST_MERGES: [[u64; 12]; 6] = [
    [
        7_703_352_945_280_731_100,
        10_034,
        3_444_544_476_012_697,
        0,
        17_550_015_392_105,
        0,
        421_887,
        313_532_612_607,
        8_727_373_545_471,
        16_630_113_370_111,
        17_550_015_392_105,
        12_506_127_600_809_415_678,
    ],
    [
        4_196_336_461_861_157_885,
        10_034,
        3_623_155_219_949_812,
        0,
        17_520_391_379_759,
        0,
        479_231,
        339_302_416_383,
        8_315_056_685_055,
        15_255_723_835_391,
        17_520_391_379_759,
        17_386_725_371_785_180_917,
    ],
    [
        14_124_836_636_986_632_750,
        10_037,
        18_446_744_073_709_551_615,
        0,
        18_446_744_073_709_551_615,
        0,
        495_615,
        382_252_089_343,
        9_483_287_789_567,
        16_630_113_370_111,
        18_446_744_073_709_551_615,
        5_273_219_837_017_147_132,
    ],
    [
        3_071_780_608_907_490_855,
        10_037,
        18_446_744_073_709_551_615,
        0,
        18_446_744_073_709_551_615,
        0,
        655_359,
        343_597_383_679,
        10_995_116_277_759,
        15_393_162_788_863,
        18_446_744_073_709_551_615,
        6_926_422_158_623_830_373,
    ],
    [
        393_465_281_661_339_298,
        10_037,
        18_446_744_073_709_551_615,
        0,
        18_446_744_073_709_551_615,
        0,
        655_103,
        343_463_165_951,
        9_436_043_149_311,
        16_093_242_458_111,
        18_446_744_073_709_551_615,
        5_659_737_153_632_368_224,
    ],
    [
        3_249_568_717_774_181_061,
        5020,
        18_446_744_073_709_551_615,
        0,
        18_446_744_073_709_551_615,
        0,
        614_399,
        390_842_023_935,
        10_307_921_510_399,
        16_630_113_370_111,
        18_446_744_073_709_551_615,
        6_015_409_924_150_289_439,
    ],
];
const HIST_EMPTY_DIGESTS: [u64; 3] = [
    4_116_863_941_369_023_524,
    18_242_308_376_385_415_968,
    11_388_751_929_347_823_343,
];
