//! Simulated smart-home devices for the gesture-control application
//! (§4.2): a living-room light and a doorbell camera, with a command log
//! so tests and examples can verify end-to-end behaviour.

use parking_lot::Mutex;
use std::fmt;

/// A command recorded by the hub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IotCommand {
    /// Pipeline-clock time of the command (nanoseconds).
    pub t_ns: u64,
    /// Target device.
    pub device: IotDevice,
    /// Resulting state (`true` = on).
    pub state: bool,
}

/// The controllable devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IotDevice {
    /// The living-room light (toggled by clapping).
    Light,
    /// The doorbell camera (toggled by waving).
    Doorbell,
}

#[derive(Debug, Default)]
struct HubState {
    light_on: bool,
    doorbell_on: bool,
    log: Vec<IotCommand>,
}

/// The smart-home hub shared between the actuator module and the outside
/// world (tests, examples).
#[derive(Default)]
pub struct IotHub {
    state: Mutex<HubState>,
}

impl IotHub {
    /// Creates a hub with everything off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Toggles the light, recording the command.
    pub(crate) fn toggle_light(&self, t_ns: u64) -> bool {
        let mut s = self.state.lock();
        s.light_on = !s.light_on;
        let state = s.light_on;
        s.log.push(IotCommand {
            t_ns,
            device: IotDevice::Light,
            state,
        });
        state
    }

    /// Toggles the doorbell camera, recording the command.
    pub(crate) fn toggle_doorbell(&self, t_ns: u64) -> bool {
        let mut s = self.state.lock();
        s.doorbell_on = !s.doorbell_on;
        let state = s.doorbell_on;
        s.log.push(IotCommand {
            t_ns,
            device: IotDevice::Doorbell,
            state,
        });
        state
    }

    /// Whether the light is currently on.
    pub fn light_on(&self) -> bool {
        self.state.lock().light_on
    }

    /// Whether the doorbell camera is currently on.
    pub fn doorbell_on(&self) -> bool {
        self.state.lock().doorbell_on
    }

    /// A copy of the command log, oldest first.
    pub fn log(&self) -> Vec<IotCommand> {
        self.state.lock().log.clone()
    }

    /// Number of commands executed.
    pub fn command_count(&self) -> usize {
        self.state.lock().log.len()
    }
}

impl fmt::Debug for IotHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock();
        f.debug_struct("IotHub")
            .field("light_on", &s.light_on)
            .field("doorbell_on", &s.doorbell_on)
            .field("commands", &s.log.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggles_and_log() {
        let hub = IotHub::new();
        assert!(!hub.light_on());
        assert!(hub.toggle_light(10));
        assert!(hub.light_on());
        assert!(!hub.toggle_light(20));
        assert!(hub.toggle_doorbell(30));
        let log = hub.log();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log[0],
            IotCommand {
                t_ns: 10,
                device: IotDevice::Light,
                state: true
            }
        );
        assert_eq!(log[2].device, IotDevice::Doorbell);
        assert_eq!(hub.command_count(), 3);
    }

    #[test]
    fn hub_is_thread_safe() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IotHub>();
    }
}
