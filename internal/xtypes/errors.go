package xtypes

import "errors"

// Error values shared across the platform. They correspond to the errno
// values Xen returns from hypercalls; components test them with errors.Is.
var (
	// ErrPerm is returned when a domain invokes a hypercall it is not
	// whitelisted for, or targets a domain it has no privilege over.
	ErrPerm = errors.New("xen: operation not permitted")

	// ErrNoDomain is returned when the target domain does not exist.
	ErrNoDomain = errors.New("xen: no such domain")

	// ErrBadGrant is returned for invalid, revoked, or foreign-owner grant
	// references.
	ErrBadGrant = errors.New("xen: bad grant reference")

	// ErrBadPort is returned for invalid or closed event-channel ports.
	ErrBadPort = errors.New("xen: bad event-channel port")

	// ErrInUse is returned when a resource (device, port, grant) is already
	// bound elsewhere.
	ErrInUse = errors.New("xen: resource in use")

	// ErrNoMem is returned when a reservation cannot be satisfied.
	ErrNoMem = errors.New("xen: out of memory")

	// ErrNotFound is returned by lookup operations (XenStore paths, devices).
	ErrNotFound = errors.New("xen: not found")

	// ErrExists is returned when creating something that already exists.
	ErrExists = errors.New("xen: already exists")

	// ErrInvalid is returned for malformed arguments.
	ErrInvalid = errors.New("xen: invalid argument")

	// ErrShutdown is returned when the target component is shutting down or
	// mid-microreboot.
	ErrShutdown = errors.New("xen: component shutting down")

	// ErrConstraint is returned when VM creation would violate a sharing
	// constraint (§3.2.1: creation fails rather than forcing an undesired
	// sharing configuration).
	ErrConstraint = errors.New("xoar: sharing constraint violated")

	// ErrNotShard is returned when IVC setup names a plain guest as a service
	// provider (§5.6: requests are blocked if at least one VM is not a shard).
	ErrNotShard = errors.New("xoar: provider is not a shard")

	// ErrNotDelegated is returned when a toolstack uses a shard that has not
	// been delegated to it (§5.6).
	ErrNotDelegated = errors.New("xoar: shard not delegated to caller")

	// ErrQuota is returned when a resource-usage quota would be exceeded
	// (§3.4.2: quotas enforced by the virtualization platform).
	ErrQuota = errors.New("xoar: resource quota exceeded")

	// ErrNoMicroreboot is returned when rollback/rebuild is requested under
	// the monolithic Dom0 profile: stock Xen has no microreboot mechanism
	// (§3.3 is Xoar-only), and seceval asserts the refusal.
	ErrNoMicroreboot = errors.New("xoar: microreboots unavailable in the monolithic profile")

	// ErrBatchAborted is returned for the valid requests of a SubmitAll
	// batch whose validation failed elsewhere: the Builder validates a
	// whole batch before spending any build compute, and one malformed or
	// unprivileged request rejects the batch outright. The invalid request
	// itself carries its own error (ErrPerm, ErrNotFound, ...).
	ErrBatchAborted = errors.New("xoar: build batch aborted by invalid sibling request")
)

// IsDenial reports whether err is a permission-class refusal: ErrPerm,
// ErrNotDelegated or ErrNotShard. The hypervisor counts exactly these in its
// denial counter, and the attack oracle checks each is counted once.
func IsDenial(err error) bool {
	return errors.Is(err, ErrPerm) || errors.Is(err, ErrNotDelegated) || errors.Is(err, ErrNotShard)
}
