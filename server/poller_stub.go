//go:build !linux

// Non-linux stub: ConnModePoller silently falls back to the portable
// goroutine-per-conn mode (WithConnMode documents this; STATS `poller`
// reports which mode is live).

package server

import "errors"

const pollerSupported = false

type poller struct{}

func newPoller(*Server) (*poller, error) {
	return nil, errors.New("server: poller conn mode requires linux epoll")
}

func (*poller) start()                    {}
func (*poller) stop()                     {}
func (*poller) destroy()                  {}
func (*poller) register(*connState) error { return errors.New("server: no poller") }
