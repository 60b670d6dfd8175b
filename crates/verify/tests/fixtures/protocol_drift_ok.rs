// Fixture: protocol-drift negative — the dispatch enumerates every
// variant; a single-variant accessor with a wildcard arm is
// if-let-shaped and exempt, as is a match over something else.
pub enum Msg {
    Put { key: u64 },
    Get { key: u64 },
}

pub fn dispatch(m: &Msg) {
    match m {
        Msg::Put { .. } => {}
        Msg::Get { .. } => {}
    }
}

pub fn key_of(m: &Msg) -> Option<u64> {
    match m {
        Msg::Put { key } => Some(*key),
        _ => None,
    }
}

pub fn decode(tag: u8) {
    match tag {
        1 => {}
        2 => {}
        _ => {}
    }
}
