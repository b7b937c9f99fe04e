//! Internal packet envelopes routed through the NoCs and the ring.

use mcgpu_types::{ChipId, LineAddr, Request, Response};

/// Which leg of its journey a request is on (Fig. 6's miss-routing paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqStage {
    /// Heading to a slice on the requesting chip (SM-side lookup, or the
    /// local half of the static/dynamic organizations for remote data).
    ToLocalSlice,
    /// Heading to a slice on the page's home chip (memory-side lookup —
    /// path 5/6 in Fig. 6 — or the static organizations' second-level
    /// lookup).
    ToHomeSlice,
    /// SM-side remote miss: bypass the home chip's slices and go straight
    /// to its memory partition (path 4 in Fig. 6).
    ToHomeMemBypass,
}

/// A request plus its routing stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqEnvelope {
    /// The memory request.
    pub req: Request,
    /// Current routing stage.
    pub stage: ReqStage,
}

impl ReqEnvelope {
    /// Bytes on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.req.wire_bytes()
    }
}

/// What a response must do when it arrives back on the requesting chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillAction {
    /// Nothing to fill (the data was found on this chip, or the
    /// organization does not replicate).
    None,
    /// Fill the requesting chip's slice for this line (SM-side replication,
    /// or the static/dynamic remote pool).
    FillLocalSlice,
}

/// A response plus its fill obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RspEnvelope {
    /// The response.
    pub rsp: Response,
    /// Fill to perform on arrival at the requesting chip.
    pub fill: FillAction,
}

impl RspEnvelope {
    /// Bytes on the wire.
    pub fn wire_bytes(&self, line_size: u64) -> u64 {
        self.rsp.wire_bytes(line_size)
    }
}

/// Anything the inter-chip fabric can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricPayload {
    /// A request on its way to a remote chip.
    Req(ReqEnvelope),
    /// A response on its way back.
    Rsp(RspEnvelope),
    /// A dirty-line writeback towards the line's home memory partition.
    Writeback {
        /// The dirty line.
        line: LineAddr,
        /// Its home chip.
        home: ChipId,
    },
    /// A hardware-coherence invalidation for `line` addressed to `target`.
    Inval {
        /// The line to invalidate.
        line: LineAddr,
        /// The chip whose LLC must drop its copy.
        target: ChipId,
    },
}

impl FabricPayload {
    /// Bytes on the wire.
    pub fn wire_bytes(&self, line_size: u64) -> u64 {
        match self {
            FabricPayload::Req(e) => e.wire_bytes(),
            FabricPayload::Rsp(e) => e.wire_bytes(line_size),
            FabricPayload::Writeback { .. } => mcgpu_types::packet::RSP_HEADER_BYTES + line_size,
            FabricPayload::Inval { .. } => mcgpu_types::packet::RSP_HEADER_BYTES,
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint codecs (`mcgpu-ckpt-v1`).
// ---------------------------------------------------------------------

use mcgpu_types::{CkptError, CkptResult, Dec, Enc};

impl ReqEnvelope {
    /// Serialize into a checkpoint payload.
    pub fn save(&self, e: &mut Enc) {
        e.put_request(&self.req);
        e.put_u8(match self.stage {
            ReqStage::ToLocalSlice => 0,
            ReqStage::ToHomeSlice => 1,
            ReqStage::ToHomeMemBypass => 2,
        });
    }

    /// Deserialize an envelope saved by [`ReqEnvelope::save`].
    ///
    /// # Errors
    /// Returns a decode error on truncated or malformed input.
    pub fn load(d: &mut Dec<'_>) -> CkptResult<Self> {
        let req = d.get_request()?;
        let stage = match d.get_u8()? {
            0 => ReqStage::ToLocalSlice,
            1 => ReqStage::ToHomeSlice,
            2 => ReqStage::ToHomeMemBypass,
            t => return Err(CkptError::Decode(format!("unknown request stage {t}"))),
        };
        Ok(ReqEnvelope { req, stage })
    }
}

impl RspEnvelope {
    /// Serialize into a checkpoint payload.
    pub fn save(&self, e: &mut Enc) {
        e.put_response(&self.rsp);
        e.put_u8(match self.fill {
            FillAction::None => 0,
            FillAction::FillLocalSlice => 1,
        });
    }

    /// Deserialize an envelope saved by [`RspEnvelope::save`].
    ///
    /// # Errors
    /// Returns a decode error on truncated or malformed input.
    pub fn load(d: &mut Dec<'_>) -> CkptResult<Self> {
        let rsp = d.get_response()?;
        let fill = match d.get_u8()? {
            0 => FillAction::None,
            1 => FillAction::FillLocalSlice,
            t => return Err(CkptError::Decode(format!("unknown fill action {t}"))),
        };
        Ok(RspEnvelope { rsp, fill })
    }
}

impl FabricPayload {
    /// Serialize into a checkpoint payload.
    pub fn save(&self, e: &mut Enc) {
        match self {
            FabricPayload::Req(env) => {
                e.put_u8(0);
                env.save(e);
            }
            FabricPayload::Rsp(env) => {
                e.put_u8(1);
                env.save(e);
            }
            FabricPayload::Writeback { line, home } => {
                e.put_u8(2);
                e.put_u64(line.0);
                e.put_u8(home.0);
            }
            FabricPayload::Inval { line, target } => {
                e.put_u8(3);
                e.put_u64(line.0);
                e.put_u8(target.0);
            }
        }
    }

    /// Deserialize a payload saved by [`FabricPayload::save`].
    ///
    /// # Errors
    /// Returns a decode error on truncated or malformed input.
    pub fn load(d: &mut Dec<'_>) -> CkptResult<Self> {
        Ok(match d.get_u8()? {
            0 => FabricPayload::Req(ReqEnvelope::load(d)?),
            1 => FabricPayload::Rsp(RspEnvelope::load(d)?),
            2 => FabricPayload::Writeback {
                line: LineAddr(d.get_u64()?),
                home: ChipId(d.get_u8()?),
            },
            3 => FabricPayload::Inval {
                line: LineAddr(d.get_u64()?),
                target: ChipId(d.get_u8()?),
            },
            t => return Err(CkptError::Decode(format!("unknown ring payload tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_types::{Address, ClusterId, MemAccess, RequestId, ResponseOrigin};

    #[test]
    fn fabric_payload_sizes() {
        let req = ReqEnvelope {
            req: Request {
                id: RequestId(1),
                origin: ClusterId::new(ChipId(0), 0),
                access: MemAccess::read(Address::new(0)),
                home: ChipId(1),
            },
            stage: ReqStage::ToHomeSlice,
        };
        assert_eq!(FabricPayload::Req(req).wire_bytes(128), 16);
        let rsp = RspEnvelope {
            rsp: Response {
                id: RequestId(1),
                dest: ClusterId::new(ChipId(0), 0),
                access: MemAccess::read(Address::new(0)),
                origin: ResponseOrigin::RemoteMem,
            },
            fill: FillAction::FillLocalSlice,
        };
        assert_eq!(FabricPayload::Rsp(rsp).wire_bytes(128), 144);
        assert_eq!(
            FabricPayload::Writeback {
                line: LineAddr(0),
                home: ChipId(0)
            }
            .wire_bytes(128),
            144
        );
        assert_eq!(
            FabricPayload::Inval {
                line: LineAddr(0),
                target: ChipId(0)
            }
            .wire_bytes(128),
            16
        );
    }
}
