//! Property-based tests for the simulated fabric.

use std::time::Duration;

use proptest::prelude::*;
use ring_net::{Fabric, LatencyModel, MemoryRegion, WireSize};

#[derive(Debug, Clone, PartialEq)]
struct Blob(Vec<u8>);
impl WireSize for Blob {
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn messages_arrive_in_order_per_link(payloads in proptest::collection::vec(any::<u8>(), 1..50)) {
        // With a uniform latency model, messages between one pair keep
        // their send order.
        let f: Fabric<Blob> = Fabric::new(LatencyModel::instant());
        let a = f.register(0).unwrap();
        let b = f.register(1).unwrap();
        for &p in &payloads {
            a.send(1, Blob(vec![p])).unwrap();
        }
        for &p in &payloads {
            let (_, msg) = b.recv_timeout(Duration::from_secs(1)).unwrap();
            prop_assert_eq!(msg, Blob(vec![p]));
        }
    }

    #[test]
    fn region_read_returns_what_was_written(
        len in 1usize..512,
        offset in 0usize..256,
        data in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        let region = MemoryRegion::new(offset + len.max(data.len()) + data.len());
        region.write(offset, &data).unwrap();
        prop_assert_eq!(region.read(offset, data.len()).unwrap(), data);
    }

    #[test]
    fn region_never_reads_out_of_bounds(size in 0usize..256, offset in 0usize..512, len in 0usize..512) {
        let region = MemoryRegion::new(size);
        let r = region.read(offset, len);
        if offset + len <= size {
            prop_assert!(r.is_ok());
            prop_assert_eq!(r.unwrap().len(), len);
        } else {
            prop_assert!(r.is_err());
        }
    }

    #[test]
    fn read_padded_zero_extends_the_region(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        offset in 0usize..512,
        len in 0usize..512,
    ) {
        let region = MemoryRegion::new(bytes.len());
        region.write(0, &bytes).unwrap();
        let want: Vec<u8> = (offset..offset + len)
            .map(|i| bytes.get(i).copied().unwrap_or(0))
            .collect();
        prop_assert_eq!(region.read_padded(offset, len), want);
        prop_assert_eq!(region.read_padded(offset, 0), Vec::<u8>::new());
    }

    #[test]
    fn wire_delay_orders_mixed_latency_deliveries(gap_us in 1u64..200) {
        // A message injected with a later timestamp is delivered after
        // an earlier one even if pushed first.
        let f: Fabric<Blob> = Fabric::new(LatencyModel {
            base: Duration::from_micros(gap_us),
            per_byte_ns: 0,
        });
        let a = f.register(0).unwrap();
        let b = f.register(1).unwrap();
        a.send(1, Blob(vec![1])).unwrap();
        // Bypass latency for the second message.
        f.inject(0, 1, Blob(vec![2])).unwrap();
        let first = b.recv_timeout(Duration::from_secs(1)).unwrap().1;
        let second = b.recv_timeout(Duration::from_secs(1)).unwrap().1;
        // Both arrive; the relative order follows the injected delays
        // (equal delays -> send order).
        prop_assert!(first == Blob(vec![1]) || first == Blob(vec![2]));
        prop_assert!(first != second);
    }
}
