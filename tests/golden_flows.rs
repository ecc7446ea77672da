//! Golden Table-I metrics: every Table-I subject at paper scale, run
//! through the 1φ, 4φ and T1@4 flows from one shared prefix, must land on
//! exactly the area, DFF count, depth and T1 found/used figures pinned
//! here. Any change to cut enumeration, cut choice, T1 detection, the
//! cover, phase assignment or DFF insertion that moves a single cell shows
//! up as a mismatch.

use sfq_t1::circuits::named::build_subject;
use sfq_t1::t1map::cells::CellLibrary;
use sfq_t1::t1map::flow::FlowStats;
use sfq_t1::t1map::report::TableRow;

/// (area in JJs, DFFs, depth in cycles, T1 found, T1 used).
type Golden = (u64, u64, i64, usize, usize);

fn golden(stats: &FlowStats) -> Golden {
    (
        stats.area,
        stats.dffs,
        stats.depth_cycles,
        stats.t1_found,
        stats.t1_used,
    )
}

fn assert_golden(subject: &str, single: Golden, multi: Golden, t1: Golden) {
    let (_, aig) = build_subject(subject).expect("registered subject");
    let row = TableRow::measure(subject, &aig, &CellLibrary::default(), 4);
    assert_eq!(golden(&row.single), single, "{subject}: 1φ");
    assert_eq!(golden(&row.multi), multi, "{subject}: 4φ");
    assert_eq!(golden(&row.t1), t1, "{subject}: T1@4");
}

macro_rules! golden {
    ($($name:ident: $subject:literal => $single:expr, $multi:expr, $t1:expr;)*) => {$(
        #[test]
        fn $name() {
            assert_golden($subject, $single, $multi, $t1);
        }
    )*};
}

golden! {
    adder_128: "adder:128" =>
        (199797, 32385, 128, 0, 0), (52437, 7825, 32, 0, 0), (40009, 6050, 33, 127, 127);
    c7552: "c7552" =>
        (17361, 2252, 35, 0, 0), (6789, 490, 9, 0, 0), (6789, 490, 9, 33, 0);
    c6288: "c6288" =>
        (26643, 1940, 36, 0, 0), (16611, 268, 9, 0, 0), (15013, 382, 10, 223, 163);
    sin_16: "sin:16" =>
        (54043, 4417, 79, 0, 0), (31579, 673, 20, 0, 0), (27973, 611, 19, 387, 231);
    voter_255: "voter:255" =>
        (21030, 842, 28, 0, 0), (16074, 16, 7, 0, 0), (15202, 223, 8, 250, 151);
    square_32: "square:32" =>
        (88327, 7413, 66, 0, 0), (51379, 1255, 17, 0, 0), (49359, 1308, 17, 476, 167);
    multiplier_32: "multiplier:32" =>
        (112913, 8548, 68, 0, 0), (70163, 1423, 17, 0, 0), (62683, 1956, 18, 960, 764);
    log2_32: "log2:32" =>
        (18572, 1570, 62, 0, 0), (11012, 310, 16, 0, 0), (10980, 321, 16, 44, 7);
}
