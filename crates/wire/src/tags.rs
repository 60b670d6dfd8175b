//! Wire tags, shared by the encoder and decoder. Tag values are part
//! of the protocol: never renumber an existing tag, only append.

// Msg variants.
pub const MSG_REQUEST: u8 = 0;
pub const MSG_RESPONSE: u8 = 1;
pub const MSG_REPLICATE: u8 = 2;
pub const MSG_REPLICATE_ACK: u8 = 3;
pub const MSG_PARITY_UPDATE: u8 = 4;
pub const MSG_PARITY_ACK: u8 = 5;
pub const MSG_META_REMOVE: u8 = 6;
pub const MSG_HEARTBEAT: u8 = 7;
pub const MSG_CONFIG_UPDATE: u8 = 8;
pub const MSG_MEMGEST_CREATE: u8 = 9;
pub const MSG_MEMGEST_DROP: u8 = 10;
pub const MSG_SET_DEFAULT: u8 = 11;
pub const MSG_CTRL_ACK: u8 = 12;
pub const MSG_META_FETCH: u8 = 13;
pub const MSG_META_FETCH_RESP: u8 = 14;
pub const MSG_FETCH_VALUE: u8 = 15;
pub const MSG_FETCH_VALUE_RESP: u8 = 16;
// Tags 17 and 18 are retired: never reuse them.
pub const MSG_PARITY_REBUILD_START: u8 = 19;
pub const MSG_PARITY_REBUILD_INFO: u8 = 20;
pub const MSG_PARITY_REBUILD_DONE: u8 = 21;
pub const MSG_SHARD_READ: u8 = 22;
pub const MSG_SHARD_READ_RESP: u8 = 23;

// ClientReq variants.
pub const REQ_PUT: u8 = 0;
pub const REQ_GET: u8 = 1;
pub const REQ_DELETE: u8 = 2;
pub const REQ_MOVE: u8 = 3;
pub const REQ_CREATE_MEMGEST: u8 = 4;
pub const REQ_DELETE_MEMGEST: u8 = 5;
pub const REQ_SET_DEFAULT_MEMGEST: u8 = 6;
pub const REQ_GET_MEMGEST_DESCRIPTOR: u8 = 7;
pub const REQ_STATS: u8 = 8;

// ClientResp variants.
pub const RESP_PUT_OK: u8 = 0;
pub const RESP_GET_OK: u8 = 1;
pub const RESP_DELETE_OK: u8 = 2;
pub const RESP_MOVE_OK: u8 = 3;
pub const RESP_MEMGEST_CREATED: u8 = 4;
pub const RESP_MEMGEST_DELETED: u8 = 5;
pub const RESP_DEFAULT_SET: u8 = 6;
pub const RESP_DESCRIPTOR: u8 = 7;
pub const RESP_STATS: u8 = 8;
pub const RESP_ERROR: u8 = 9;

// RingError variants.
pub const ERR_KEY_NOT_FOUND: u8 = 0;
pub const ERR_UNKNOWN_MEMGEST: u8 = 1;
pub const ERR_INVALID_DESCRIPTOR: u8 = 2;
pub const ERR_TIMEOUT: u8 = 3;
pub const ERR_NOT_COORDINATOR: u8 = 4;
pub const ERR_UNAVAILABLE: u8 = 5;
pub const ERR_NET: u8 = 6;
pub const ERR_INTERNAL: u8 = 7;

// Scheme variants.
pub const SCHEME_REP: u8 = 0;
pub const SCHEME_SRS: u8 = 1;
