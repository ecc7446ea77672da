//! Golden results of the standard pre-mapping optimizer: every Table-I
//! subject, run to fixpoint under `OptConfig::standard()`, must land on
//! exactly the AND count and structural hash pinned here. Any change to
//! cut enumeration, MFFC pricing or rewrite selection that alters a single
//! accepted site shows up as a hash mismatch.

use sfq_t1::circuits::named::build_subject;
use sfq_t1::opt::{optimize, OptConfig};

fn assert_golden(subject: &str, ands: usize, hash: u64) {
    let (_, aig) = build_subject(subject).expect("registered subject");
    let (opt, _) = optimize(&aig, &OptConfig::standard());
    assert_eq!(
        (opt.and_count(), opt.structural_hash()),
        (ands, hash),
        "{subject}: optimized AND count / structural hash"
    );
}

macro_rules! golden {
    ($($name:ident: $subject:literal => $ands:literal, $hash:literal;)*) => {$(
        #[test]
        fn $name() {
            assert_golden($subject, $ands, $hash);
        }
    )*};
}

golden! {
    adder_128: "adder:128" => 1274, 0x61d5_1860_1f4c_7f38;
    c7552: "c7552" => 730, 0x6097_a3cb_c871_2085;
    c6288: "c6288" => 2287, 0x0599_1d47_67bb_63b9;
    sin_16: "sin:16" => 4139, 0xb230_5edb_042f_833c;
    voter_255: "voter:255" => 2591, 0x2e42_a593_8827_2630;
    square_32: "square:32" => 6287, 0x12ee_f635_2c4e_5781;
    multiplier_32: "multiplier:32" => 9488, 0x7cb3_daf0_33c3_916c;
    log2_32: "log2:32" => 843, 0xd451_d4d1_5800_e297;
}
