// PH101 pass fixture: the sink path degrades gracefully; an `unwrap` in
// a fn no sink can reach stays legal (the rule is reachability-scoped).
pub struct Driver;

impl ProtocolDriver for Driver {
    fn on_event(&mut self, ev: u64) -> u64 {
        helper(ev)
    }
}

fn helper(ev: u64) -> u64 {
    ev.checked_add(1).unwrap_or(0)
}

pub fn offline_tool(ev: u64) -> u64 {
    ev.checked_add(1).unwrap()
}
