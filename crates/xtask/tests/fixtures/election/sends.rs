// Fixture: energy-accounting violations (`election/` makes it protocol).
// Expected diagnostics (lint, line) are asserted by tests/fixtures.rs.

pub fn run(net: &mut Network<Msg>, tag: &'static str) {
    net.broadcast(0, Msg::Ping, 8, phase::HEARTBEAT);
    net.unicast(0, 1, Msg::Ping, 8, tag); // line 6: unaccounted_send
}

// This entry point sends through ambient state instead of taking the
// energy-accounted Network.
pub fn ambient(state: &mut State) { // line 11: unthreaded_network
    helper(state);
}

fn helper(state: &mut State) {
    state.net.broadcast(0, Msg::Ping, 8, "heartbeat");
}
