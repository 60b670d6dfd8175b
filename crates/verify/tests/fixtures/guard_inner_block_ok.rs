// Fixture: guard moved into an inner block and dropped there before
// the send. Brace-depth liveness cannot see the move and would fire on
// the send; the guard-liveness dataflow follows it and stays clean.
fn relay(state: &std::sync::Mutex<Vec<u8>>, ep: &Endpoint) {
    let guard = state.lock().unwrap();
    let copy = guard.clone();
    {
        let _held = guard; // the guard now lives — and dies — here
    }
    ep.send(1, copy); // clean: the guard died with the inner block
}
