"""Strong-Wolfe line search for the GMM's BFGS: MINPACK-2's DCSRCH and DCSTEP.

This is ``scipy/optimize/_dcsrch.py`` of scipy 1.17.1 (J. J. More' and
D. J. Thuente, ACM TOMS 20 (1994) 286-307, as ported from Fortran in 2023),
driven the way ``scipy.optimize.line_search_wolfe1`` drives it for
``minimize(method="BFGS")``.  Its settings are fixed below.  Every operation
is kept as scipy writes it, numpy scalar functions and all, so that the steps
are scipy's bit for bit; a test runs the two side by side.

The port keeps scipy's notice::

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

    MINPACK-1 Project. June 1983.
    Argonne National Laboratory.
    Jorge J. More' and David J. Thuente.

    MINPACK-2 Project. November 1993.
    Argonne National Laboratory and University of Minnesota.
    Brett M. Averick, Richard G. Carter, and Jorge J. More'.
"""

from __future__ import annotations

import math

import numpy as np

#: Sufficient-decrease constant (scipy's ``c1``, MINPACK's ``ftol``).
C1 = 1e-4
#: Curvature constant (scipy's ``c2``, MINPACK's ``gtol``).
C2 = 0.9
#: Relative width of the bracket at which the search gives up.
XTOL = 1e-14
#: Bounds on the step, as BFGS passes them.
STPMIN, STPMAX = 1e-100, 1e100
#: DCSRCH calls per search, the first of which only sets the search up.
MAXITER = 100


def wolfe_search(trial, phi0, derphi0, old_phi0):
    """First step along a descent direction that meets the strong Wolfe
    conditions, as ``(step, phi(step), payload)``, or None if there is none.

    ``trial(step)`` evaluates the function once and returns ``(phi(step),
    phi'(step), payload)``; ``payload`` is handed back with the accepted step
    so the caller need not evaluate it again.  ``phi0`` and ``derphi0`` are
    phi(0) and phi'(0), ``old_phi0`` the function at the previous iterate,
    from which the first trial step is extrapolated.
    """
    if derphi0 != 0:
        stp = min(1.0, 1.01 * 2 * (phi0 - old_phi0) / derphi0)
        if stp < 0:
            stp = 1.0
    else:
        stp = 1.0
    # DCSRCH's 'START': the constant settings are valid, the step and slope
    # may not be.
    if stp < STPMIN or stp > STPMAX or derphi0 >= 0:
        return None
    brackt = False
    stage = 1
    finit, ginit = phi0, derphi0
    gtest = C1 * ginit
    width = STPMAX - STPMIN
    width1 = width / 0.5
    # (stx, fx, gx) is the best step so far, (sty, fy, gy) the other end of
    # the interval, and (stp, f, g) the trial.
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin = 0
    stmax = stp + 4.0 * stp
    # scipy evaluates once more after its last DCSRCH call and then fails
    # without testing that point; this loop stops before it.
    for _ in range(MAXITER - 1):
        f, g, payload = trial(stp)
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        warn = (
            (brackt and (stp <= stmin or stp >= stmax))
            or (brackt and stmax - stmin <= XTOL * stmax)
            or (stp == STPMAX and f <= ftest and g <= gtest)
            or (stp == STPMIN and (f > ftest or g >= gtest))
        )
        if f <= ftest and abs(g) <= C2 * -ginit:
            return stp, f, payload
        if warn:
            return None

        if stage == 1 and f <= fx and f > ftest:
            # A lower value without sufficient decrease: step on the
            # modified function psi(stp) = f(stp) - f(0) - C1 stp f'(0).
            fm = f - stp * gtest
            fxm = fx - stx * gtest
            fym = fy - sty * gtest
            gm = g - gtest
            gxm = gx - gtest
            gym = gy - gtest
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                    stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt, stmin, stmax
                )
            fx = fxm + stx * gtest
            fy = fym + sty * gtest
            gx = gxm + gtest
            gy = gym + gtest
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                    stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
                )

        if brackt:
            # Bisect when the interval did not shrink enough.
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)
            stmin = min(stx, sty)
            stmax = max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = np.clip(stp, STPMIN, STPMAX)
        # No further progress is possible: try the best step found.
        if brackt and (stp <= stmin or stp >= stmax) or (
            brackt and stmax - stmin <= XTOL * stmax
        ):
            stp = stx
        if not math.isfinite(stp):
            return None
    return None


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's DCSTEP: a safeguarded trial step, and the interval
    ``[stx, sty]`` that brackets a step meeting both Wolfe conditions.

    ``stx`` is the step with the least function value and ``stp`` the
    current one; ``f*`` are function values and ``d*`` derivatives at each.
    Returns the updated ``(stx, fx, dx, sty, fy, dy)``, the new trial step
    and whether a minimizer is bracketed.
    """
    sgnd = np.sign(dp) * np.sign(dx)

    if fp > fx:
        # A higher function value brackets the minimum.  Take the cubic step
        # if it is closer to stx than the quadratic one, else their average.
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma *= -1
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # A lower value and derivatives of opposite sign bracket the minimum.
        # Take the cubic step if it is farther from stp than the secant step.
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma *= -1
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # A lower value, derivatives of the same sign, and a derivative that
        # shrinks.  The cubic step is used only if the cubic tends to infinity
        # in the direction of the step or its minimum lies beyond stp.
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)

        if brackt:
            # Take whichever of the cubic and secant steps is closer to stp.
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            # Take whichever is farther from stp.
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = np.clip(stpf, stpmin, stpmax)
    else:
        # A lower value, derivatives of the same sign, and a derivative that
        # does not shrink: the cubic step once bracketed, else a bound.
        if brackt:
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            r = p / q
            stpc = stp + r * (sty - stp)
            stpf = stpc
        elif stp > stx:
            stpf = stpmax
        else:
            stpf = stpmin

    # Update the interval that contains a minimizer.
    if fp > fx:
        sty = stp
        fy = fp
        dy = dp
    else:
        if sgnd < 0:
            sty = stx
            fy = fx
            dy = dx
        stx = stp
        fx = fp
        dx = dp

    return stx, fx, dx, sty, fy, dy, stpf, brackt
