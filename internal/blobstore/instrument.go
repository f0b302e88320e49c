package blobstore

import (
	"errors"

	"sqlledger/internal/obs"
)

// instrumented wraps a Store and reports each failed operation as a
// blobstore_error event.
type instrumented struct {
	inner  Store
	events *obs.EventLog
}

// Instrument wraps s so every failed Put/Get/List lands in reg's event
// log. A nil or disabled registry still returns a working wrapper whose
// events are inert, so callers never branch.
func Instrument(s Store, reg *obs.Registry) Store {
	return &instrumented{inner: s, events: reg.Events()}
}

func (s *instrumented) Put(name string, data []byte) error {
	err := s.inner.Put(name, data)
	// ErrImmutable is immutability working as intended (digest re-uploads
	// probe for it), not an operational failure.
	if err != nil && !errors.Is(err, ErrImmutable) {
		s.events.Warn(obs.EventBlobstoreError, "op", "put", "name", name, "err", err.Error())
	}
	return err
}

func (s *instrumented) Get(name string) ([]byte, error) {
	b, err := s.inner.Get(name)
	if err != nil && !errors.Is(err, ErrNotFound) {
		s.events.Warn(obs.EventBlobstoreError, "op", "get", "name", name, "err", err.Error())
	}
	return b, err
}

func (s *instrumented) List(prefix string) ([]string, error) {
	names, err := s.inner.List(prefix)
	if err != nil {
		s.events.Warn(obs.EventBlobstoreError, "op", "list", "name", prefix, "err", err.Error())
	}
	return names, err
}
