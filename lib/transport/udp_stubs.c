/* Datagram-syscall and poll(2) stubs for the UDP backend and the
 * wall-clock driver.
 *
 * Return-code protocol shared by all entry points (the OCaml wrappers
 * in sysops.ml depend on it):
 *
 *   >= 0  work done (bytes or datagrams received/sent, fds ready)
 *   -1    would block / interrupted: nothing to do right now
 *   -2    unsupported on this platform or kernel (ENOSYS): the caller
 *         must flip to its scalar/select fallback and stop calling
 *   -3    other OS error: charged to the relevant error counter
 *   -4    ECONNREFUSED: the kernel reporting an earlier send's ICMP
 *         port-unreachable; the socket itself is fine
 *
 * sendto/recvfrom/sendmmsg/recvmmsg are called with MSG_DONTWAIT and
 * the runtime lock HELD: the sockets are non-blocking, so the syscalls
 * return immediately, and holding the lock keeps the Bytes_val
 * pointers stable (no allocation happens between taking them and the
 * syscall). So the kernel reads from, and writes into, the OCaml
 * buffers directly, with no staging copy. None of these four raises
 * or allocates. poll(2) genuinely blocks, so it copies the fd numbers
 * out first and releases the runtime lock around the wait.
 */

#ifndef _GNU_SOURCE
#define _GNU_SOURCE /* recvmmsg/sendmmsg and struct mmsghdr */
#endif

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>

#include <string.h>
#include <errno.h>
#include <stdlib.h>

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>
#endif

#define HORUS_MAX_BATCH 256

#ifndef _WIN32
/* The protocol's code for a failed datagram syscall's errno. */
static value error_code(int err)
{
  if (err == EAGAIN || err == EWOULDBLOCK || err == EINTR) return Val_int(-1);
  if (err == ENOSYS) return Val_int(-2);
  if (err == ECONNREFUSED) return Val_int(-4);
  return Val_int(-3);
}
#endif

#if defined(__linux__)
#define HORUS_HAVE_MMSG 1
#endif

/* sendto(fd, buf, len, ip, port): transmit the first len bytes of buf
 * to the host-order IPv4 address ip and port. Returns the bytes sent. */
CAMLprim value horus_sendto(value vfd, value vbuf, value vlen, value vip, value vport)
{
#ifndef _WIN32
  struct sockaddr_in to;
  memset(&to, 0, sizeof to);
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl((uint32_t)Long_val(vip));
  to.sin_port = htons((uint16_t)Long_val(vport));
  ssize_t r = sendto(Int_val(vfd), Bytes_val(vbuf), Long_val(vlen), MSG_DONTWAIT,
                     (struct sockaddr *)&to, sizeof to);
  if (r < 0) return error_code(errno);
  return Val_long(r);
#else
  (void)vfd; (void)vbuf; (void)vlen; (void)vip; (void)vport;
  return Val_int(-2);
#endif
}

/* recvfrom(fd, buf, src): receive one datagram into buf. Returns its
 * byte count and writes the host-order IPv4 source address into
 * src.(0) and the source port into src.(1). A datagram longer than buf
 * is truncated to it. */
CAMLprim value horus_recvfrom(value vfd, value vbuf, value vsrc)
{
#ifndef _WIN32
  struct sockaddr_in from;
  socklen_t fromlen = sizeof from;
  memset(&from, 0, sizeof from);
  ssize_t r = recvfrom(Int_val(vfd), Bytes_val(vbuf), caml_string_length(vbuf),
                       MSG_DONTWAIT, (struct sockaddr *)&from, &fromlen);
  if (r < 0) return error_code(errno);
  Field(vsrc, 0) = Val_long(ntohl(from.sin_addr.s_addr));
  Field(vsrc, 1) = Val_long(ntohs(from.sin_port));
  return Val_long(r);
#else
  (void)vfd; (void)vbuf; (void)vsrc;
  return Val_int(-2);
#endif
}

/* recvmmsg(fd, bufs, lens, ips, ports): drain up to Array.length bufs
 * datagrams in one syscall. For each received datagram i, lens.(i)
 * gets the byte count, ips.(i) the host-order IPv4 source address and
 * ports.(i) the source port. */
CAMLprim value horus_recvmmsg(value vfd, value vbufs, value vlens, value vips,
                              value vports)
{
#ifdef HORUS_HAVE_MMSG
  int n = Wosize_val(vbufs);
  if (n > HORUS_MAX_BATCH) n = HORUS_MAX_BATCH;
  if (n <= 0) return Val_int(0);
  struct mmsghdr msgs[HORUS_MAX_BATCH];
  struct iovec iov[HORUS_MAX_BATCH];
  struct sockaddr_in addrs[HORUS_MAX_BATCH];
  memset(msgs, 0, n * sizeof(struct mmsghdr));
  for (int i = 0; i < n; i++) {
    iov[i].iov_base = Bytes_val(Field(vbufs, i));
    iov[i].iov_len = caml_string_length(Field(vbufs, i));
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(struct sockaddr_in);
  }
  int r = recvmmsg(Int_val(vfd), msgs, n, MSG_DONTWAIT, NULL);
  if (r < 0) return error_code(errno);
  for (int i = 0; i < r; i++) {
    Field(vlens, i) = Val_long(msgs[i].msg_len);
    Field(vips, i) = Val_long(ntohl(addrs[i].sin_addr.s_addr));
    Field(vports, i) = Val_long(ntohs(addrs[i].sin_port));
  }
  return Val_int(r);
#else
  (void)vfd; (void)vbufs; (void)vlens; (void)vips; (void)vports;
  return Val_int(-2);
#endif
}

/* sendmmsg(fd, bufs, lens, ips, ports, count): transmit the first
 * count pending datagrams in one syscall; bufs.(i) holds the payload
 * (first lens.(i) bytes), ips/ports the host-order IPv4 destination.
 * Returns how many the kernel accepted. */
CAMLprim value horus_sendmmsg(value vfd, value vbufs, value vlens, value vips,
                              value vports, value vcount)
{
#ifdef HORUS_HAVE_MMSG
  int n = Int_val(vcount);
  if (n > HORUS_MAX_BATCH) n = HORUS_MAX_BATCH;
  if (n <= 0) return Val_int(0);
  struct mmsghdr msgs[HORUS_MAX_BATCH];
  struct iovec iov[HORUS_MAX_BATCH];
  struct sockaddr_in addrs[HORUS_MAX_BATCH];
  memset(msgs, 0, n * sizeof(struct mmsghdr));
  memset(addrs, 0, n * sizeof(struct sockaddr_in));
  for (int i = 0; i < n; i++) {
    iov[i].iov_base = Bytes_val(Field(vbufs, i));
    iov[i].iov_len = Long_val(Field(vlens, i));
    addrs[i].sin_family = AF_INET;
    addrs[i].sin_addr.s_addr = htonl((uint32_t)Long_val(Field(vips, i)));
    addrs[i].sin_port = htons((uint16_t)Long_val(Field(vports, i)));
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(struct sockaddr_in);
  }
  int r = sendmmsg(Int_val(vfd), msgs, n, MSG_DONTWAIT);
  if (r < 0) return error_code(errno);
  return Val_int(r);
#else
  (void)vfd; (void)vbufs; (void)vlens; (void)vips; (void)vports; (void)vcount;
  return Val_int(-2);
#endif
}

/* Bytecode trampoline for the 6-argument native stub above. */
CAMLprim value horus_sendmmsg_byte(value *argv, int argn)
{
  (void)argn;
  return horus_sendmmsg(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* poll(fds, timeout_ms): wait for readability on any of the fds.
 * Unlike select(2) there is no FD_SETSIZE ceiling, so a driver can
 * idle on thousands of sockets. Returns the number of ready fds (0 on
 * timeout). The fd set is copied out before the runtime lock is
 * released, so the OCaml array may move freely during the wait. */
CAMLprim value horus_poll(value vfds, value vtimeout)
{
#ifndef _WIN32
  int n = Wosize_val(vfds);
  int timeout = Int_val(vtimeout);
  struct pollfd *pfds = NULL;
  if (n > 0) {
    pfds = malloc(n * sizeof(struct pollfd));
    if (pfds == NULL) caml_raise_out_of_memory();
    for (int i = 0; i < n; i++) {
      pfds[i].fd = Int_val(Field(vfds, i));
      pfds[i].events = POLLIN;
      pfds[i].revents = 0;
    }
  }
  caml_release_runtime_system();
  int r = poll(pfds, (nfds_t)n, timeout);
  int saved = errno;
  caml_acquire_runtime_system();
  free(pfds);
  if (r < 0) {
    if (saved == EINTR) return Val_int(0);
    if (saved == ENOSYS) return Val_int(-2);
    return Val_int(-3);
  }
  return Val_int(r);
#else
  (void)vfds; (void)vtimeout;
  return Val_int(-2);
#endif
}
