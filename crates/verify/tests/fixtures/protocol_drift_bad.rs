// Fixture: protocol-drift positive — a dispatch over `Msg` hides a
// variant behind a wildcard arm. No tag consts exist anywhere in the
// run: the pass keys on the enum alone.
pub enum Msg {
    Put { key: u64 },
    Get { key: u64 },
    Ack,
}

pub fn dispatch(m: &Msg) {
    match m {
        Msg::Put { .. } => {}
        Msg::Get { .. } => {}
        _ => {}
    }
}
