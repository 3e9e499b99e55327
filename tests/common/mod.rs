//! Shared by the integration tests that execute a generated workload on
//! the real ledger.

use contractshard::ledger::TxKind;
use contractshard::prelude::*;

/// A genesis state for `txs`: every sender, multi-input input and direct
/// recipient funded once, and every contract the list calls registered.
/// Generated workloads are transactions only; this is the ledger they
/// validate against in order.
pub fn funded_genesis(txs: &[Transaction]) -> State {
    let mut state = State::new();
    let contracts = txs
        .iter()
        .filter_map(|t| t.kind.contract())
        .map(|c| c.0 + 1);
    for c in 0..contracts.max().unwrap_or(0) {
        // Each contract unconditionally pays its own sink user (Sec. VI-A).
        let sink = Address::user(u64::MAX - u64::from(c));
        state
            .register_contract(SmartContract::unconditional(ContractId::new(c), sink))
            .expect("the next dense contract id");
    }
    for tx in txs {
        let (inputs, recipient) = match &tx.kind {
            TxKind::MultiInput { inputs, .. } => (inputs.as_slice(), None),
            TxKind::DirectTransfer { to, .. } => (&[][..], Some(to)),
            TxKind::ContractCall { .. } => (&[][..], None),
        };
        for &user in std::iter::once(&tx.sender).chain(inputs).chain(recipient) {
            if state.account(user).is_none() {
                state
                    .fund_user(user, Amount::from_raw(2_000_000_000))
                    .expect("a user account");
            }
        }
    }
    state
}
