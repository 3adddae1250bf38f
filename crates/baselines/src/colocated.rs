//! The colocated parameter-server node (§5.3's second PS scenario):
//! one machine runs both a worker process and a PS shard, sharing the
//! machine's single link — which is why "the Colocated PS approach
//! reaches only half of SwitchML's performance": every link carries
//! the worker's own traffic *and* the shard's aggregation traffic.

use crate::switchml::{SimEndpoint, SwitchMLWorkerNode};
use std::any::Any;
use switchml_core::packet::{Packet, PacketKind};
use switchml_netsim::prelude::*;
use switchml_transport::ShardEndpoint;

/// Discriminates the two halves' timers.
const PART_BIT: u64 = 1 << 62;

/// A ctx wrapper that tags timer tokens with which half armed them.
struct TaggedCtx<'a> {
    inner: &'a mut dyn NodeCtx,
    tag: u64,
}

impl NodeCtx for TaggedCtx<'_> {
    fn now(&self) -> Nanos {
        self.inner.now()
    }
    fn self_id(&self) -> NodeId {
        self.inner.self_id()
    }
    fn send(&mut self, pkt: SimPacket) {
        self.inner.send(pkt);
    }
    fn set_timer(&mut self, delay: Nanos, token: TimerToken) {
        debug_assert_eq!(token.0 & PART_BIT, 0, "token collides with part tag");
        self.inner.set_timer(delay, TimerToken(token.0 | self.tag));
    }
    fn complete(&mut self) {
        self.inner.complete();
    }
}

/// A machine hosting a SwitchML-protocol worker and a PS shard.
pub struct ColocatedNode {
    pub worker: SwitchMLWorkerNode,
    pub ps: SimEndpoint<ShardEndpoint>,
}

impl ColocatedNode {
    pub fn new(worker: SwitchMLWorkerNode, ps: SimEndpoint<ShardEndpoint>) -> Self {
        ColocatedNode { worker, ps }
    }
}

impl Node for ColocatedNode {
    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        self.worker.on_start(&mut TaggedCtx { inner: ctx, tag: 0 });
        self.ps.on_start(&mut TaggedCtx {
            inner: ctx,
            tag: PART_BIT,
        });
    }

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut dyn NodeCtx) {
        // Updates are for the PS shard; results are for the worker.
        match Packet::peek_kind(&pkt.payload) {
            Some(PacketKind::Update) => self.ps.on_packet(
                pkt,
                &mut TaggedCtx {
                    inner: ctx,
                    tag: PART_BIT,
                },
            ),
            Some(PacketKind::Result) => self
                .worker
                .on_packet(pkt, &mut TaggedCtx { inner: ctx, tag: 0 }),
            None => {} // unparseable; both halves would drop it anyway
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn NodeCtx) {
        if token.0 & PART_BIT != 0 {
            self.ps.on_timer(
                TimerToken(token.0 & !PART_BIT),
                &mut TaggedCtx {
                    inner: ctx,
                    tag: PART_BIT,
                },
            );
        } else {
            self.worker
                .on_timer(token, &mut TaggedCtx { inner: ctx, tag: 0 });
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
