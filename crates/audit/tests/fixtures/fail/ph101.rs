// PH101 fail fixture: an `unwrap` two hops below a protocol sink.
pub struct Driver;

impl ProtocolDriver for Driver {
    fn on_event(&mut self, ev: u64) -> u64 {
        helper(ev)
    }
}

fn helper(ev: u64) -> u64 {
    decode(ev).wrapping_add(ev)
}

fn decode(ev: u64) -> u64 {
    ev.checked_add(1).unwrap()
}
