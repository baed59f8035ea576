package wire

import (
	"repro/internal/churn"
	"repro/internal/core"
)

// NewExecutorFactoryConfig returns a churn.SchedulerConfig.NewExecutor
// that runs every epoch's protocol execution through a core.Driver over
// a wire Bank dialed to addrs with the given client knobs (pipeline
// depth, redial attempts/backoff; the Sessions knob is ignored — the
// scheduler drives one session): the churn scenario against live server
// processes. The scheduler hands the factory the fully assembled
// per-epoch configuration (carried loads and request counts aliased to
// its state), so the executor sees each epoch's state exactly as the
// in-process one does; because the Driver Resets the bank at every
// epoch — redialing dead connections with bounded backoff — the
// scenario's outcomes are bit-for-bit those of the local executor even
// when shard servers are killed and restarted between epochs.
func NewExecutorFactoryConfig(addrs []string, bcfg BankConfig) func(*churn.Topology, core.Config) (churn.Executor, error) {
	bcfg.Sessions = 1
	return func(topo *churn.Topology, cfg core.Config) (churn.Executor, error) {
		bank, err := DialConfig(addrs, cfg.Variant, int32(cfg.Params().Capacity()), topo.NumServers(), bcfg)
		if err != nil {
			return nil, err
		}
		dr, err := core.NewDriver(topo, cfg, bank)
		if err != nil {
			bank.Close()
			return nil, err
		}
		return &wireExecutor{dr: dr, bank: bank}, nil
	}
}

// wireExecutor drives one epoch per RunEpoch through the shared Driver.
type wireExecutor struct {
	dr   *core.Driver
	bank *Bank
}

func (x *wireExecutor) RunEpoch(seed uint64) (*core.Result, error) {
	x.dr.Reseed(seed)
	return x.dr.Run()
}

// Bank exposes the executor's bank (for metrics and teardown).
func (x *wireExecutor) Bank() *Bank { return x.bank }
