//! Golden wire vectors: the exact bytes of one `k = 32` update and one
//! `k = 256` result, checked in as hex (`golden/*.hex`, 32 bytes per
//! line). The encoders must reproduce them byte for byte, checksum
//! included, on whichever CRC arm this process dispatches to — so a
//! change to how the checksum is computed cannot change what goes on
//! the wire, and recorded traces stay valid.

use switchml_core::packet::{
    encode_result_into, encode_update_frame, Packet, PacketKind, PacketView, PoolVersion,
    ResultMeta, UpdateMeta, WireChunk, HEADER_LEN,
};

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn update_k32() -> Vec<u8> {
    let meta = UpdateMeta {
        wid: 3,
        ver: PoolVersion::V1,
        idx: 17,
        off: 123_456,
        job: 2,
        epoch: 5,
        retransmission: true,
    };
    let values: Vec<i32> = (0..32i32)
        .map(|i| i.wrapping_mul(-1_640_531_535) ^ (i << 3))
        .collect();
    let mut out = Vec::new();
    encode_update_frame(meta, WireChunk::I32(&values), &mut out);
    out
}

fn result_k256() -> Vec<u8> {
    let meta = ResultMeta {
        wid: 1,
        ver: PoolVersion::V0,
        idx: 200,
        off: (1 << 33) + 7 * 256,
        job: 0,
        epoch: 1,
        retransmission: false,
        f16: false,
    };
    let values: Vec<i32> = (0..256i32).map(|i| i * i * 31 - 40_000).collect();
    let mut out = Vec::new();
    encode_result_into(meta, &values, &mut out);
    out
}

#[test]
fn update_k32_matches_the_golden_bytes() {
    let golden = unhex(include_str!("golden/update_k32.hex"));
    assert_eq!(golden.len(), HEADER_LEN + 4 * 32);
    assert_eq!(update_k32(), golden);
    let v = PacketView::parse(&golden).unwrap();
    assert_eq!((v.kind(), v.wid(), v.k()), (PacketKind::Update, 3, 32));
    assert_eq!(Packet::decode(&golden).unwrap().encode()[..], golden[..]);
}

#[test]
fn result_k256_matches_the_golden_bytes() {
    let golden = unhex(include_str!("golden/result_k256.hex"));
    assert_eq!(golden.len(), HEADER_LEN + 4 * 256);
    assert_eq!(result_k256(), golden);
    let v = PacketView::parse(&golden).unwrap();
    assert_eq!((v.kind(), v.idx(), v.k()), (PacketKind::Result, 200, 256));
    assert_eq!(Packet::decode(&golden).unwrap().encode()[..], golden[..]);
}
